#!/usr/bin/env bash
# Builds brsmnd and the benchmark from the checkout this script sits in,
# then runs one workload:
#
#   bash brsmnperf/run.sh --workload read-hot --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build output, Go cache and log
# stays under .bench_build/ in that root.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/brsmnd" || "$(dirname "$here")" != "$root" ]]; then
	echo "run.sh: run from the repository root (no go.mod or cmd/brsmnd beside $here)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOTELEMETRY=off CGO_ENABLED=0

(cd "$here" && go build -o "$out/brsmnd" brsmn/cmd/brsmnd && go build -o "$out/brsmnperf" .)
exec "$out/brsmnperf" -daemon "$out/brsmnd" "$@"
