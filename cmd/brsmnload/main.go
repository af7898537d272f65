// Command brsmnload replays multicast-group workloads against a brsmnd
// cluster (or a single node) and emits an SLO report. Group sizes are
// Zipf-distributed — a few big fan-outs, a long tail of small ones, the
// shape both scenario families exhibit in practice — and churn follows
// a scenario trace:
//
//	videoconf  many small groups, heavy join/leave churn, a replan
//	           after most membership changes
//	pubsub     fewer, larger groups, sparse churn, read-dominated
//	           (plan fetches are most of the traffic)
//
// Requests spread across every -targets node round-robin per worker, so
// in cluster mode a known fraction lands on non-owners and exercises
// the forwarding tier; the X-Brsmn-Forwarded response header classifies
// each sample, which is how the report separates forwarded from local
// latency and prices the extra hop.
//
// Usage:
//
//	brsmnload -targets http://127.0.0.1:8701,http://127.0.0.1:8702 \
//	  -scenario videoconf -groups 20000 -duration 30s -workers 16 \
//	  -out BENCH_cluster.json
//
// The report (see Report) carries routes/sec, p50/p95/p99 latency, the
// shed rate (429s under admission backpressure), the forwarding rate
// and overhead, and the cluster-wide group count before and after the
// run — the zero-loss check a drain rehearsal scripts against.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"
)

// config is the parsed flag set.
type config struct {
	targets  []string
	scenario string
	groups   int
	n        int
	workers  int
	duration time.Duration
	zipfS    float64
	zipfV    float64
	maxSize  int
	seed     int64
	out      string
	timeout  time.Duration
	async    float64
}

// parseFlags parses args (without the program name) into a config.
func parseFlags(args []string) (config, error) {
	var cfg config
	var targets string
	fs := flag.NewFlagSet("brsmnload", flag.ContinueOnError)
	fs.StringVar(&targets, "targets", "http://127.0.0.1:8642", "comma-separated brsmnd base URLs to spread load across")
	fs.StringVar(&cfg.scenario, "scenario", "videoconf", "churn trace: videoconf or pubsub")
	fs.IntVar(&cfg.groups, "groups", 10000, "groups to create before the timed run")
	fs.IntVar(&cfg.n, "n", 1024, "network size the targets were started with (member ports are drawn below it)")
	fs.IntVar(&cfg.workers, "workers", 16, "concurrent client workers")
	fs.DurationVar(&cfg.duration, "duration", 30*time.Second, "timed-run length")
	fs.Float64Var(&cfg.zipfS, "zipf-s", 1.3, "Zipf exponent for group sizes (must be > 1)")
	fs.Float64Var(&cfg.zipfV, "zipf-v", 2, "Zipf offset for group sizes (must be >= 1)")
	fs.IntVar(&cfg.maxSize, "max-size", 0, "largest group size (0 means n/2)")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload RNG seed (same seed, same trace)")
	fs.StringVar(&cfg.out, "out", "BENCH_cluster.json", "report path (- writes to stdout)")
	fs.DurationVar(&cfg.timeout, "timeout", 10*time.Second, "per-request timeout")
	fs.Float64Var(&cfg.async, "async", 0, "fraction of churn ops submitted as tickets and long-polled to completion (0..1)")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if fs.NArg() != 0 {
		return config{}, fmt.Errorf("brsmnload: unexpected arguments %v", fs.Args())
	}
	for _, t := range strings.Split(targets, ",") {
		t = strings.TrimSpace(t)
		if t == "" {
			continue
		}
		if !strings.HasPrefix(t, "http://") && !strings.HasPrefix(t, "https://") {
			return config{}, fmt.Errorf("brsmnload: target %q must start with http:// or https://", t)
		}
		cfg.targets = append(cfg.targets, strings.TrimRight(t, "/"))
	}
	if len(cfg.targets) == 0 {
		return config{}, errors.New("brsmnload: no targets")
	}
	if cfg.scenario != "videoconf" && cfg.scenario != "pubsub" {
		return config{}, fmt.Errorf("brsmnload: unknown scenario %q (want videoconf or pubsub)", cfg.scenario)
	}
	if cfg.groups < 1 {
		return config{}, fmt.Errorf("brsmnload: -groups must be at least 1, got %d", cfg.groups)
	}
	if cfg.workers < 1 {
		return config{}, fmt.Errorf("brsmnload: -workers must be at least 1, got %d", cfg.workers)
	}
	if cfg.zipfS <= 1 || cfg.zipfV < 1 {
		return config{}, errors.New("brsmnload: -zipf-s must be > 1 and -zipf-v >= 1")
	}
	if cfg.async < 0 || cfg.async > 1 {
		return config{}, fmt.Errorf("brsmnload: -async must be in [0,1], got %g", cfg.async)
	}
	if cfg.n < 4 {
		return config{}, fmt.Errorf("brsmnload: -n must be at least 4, got %d", cfg.n)
	}
	if cfg.maxSize <= 0 {
		cfg.maxSize = cfg.n / 2
	}
	if cfg.maxSize >= cfg.n {
		cfg.maxSize = cfg.n - 1
	}
	return cfg, nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		log.Fatal(err)
	}
	rep, err := runLoad(cfg, log.Printf)
	if err != nil {
		log.Fatal(err)
	}
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	raw = append(raw, '\n')
	if cfg.out == "-" {
		os.Stdout.Write(raw)
		return
	}
	if err := os.WriteFile(cfg.out, raw, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("brsmnload: %s: %.0f routes/sec, p99 %.2fms, shed %.4f, forwarded %.2f%% (report: %s)\n",
		cfg.scenario, rep.RoutesPerSec, rep.LatencyMs.P99, rep.ShedRate, 100*rep.ForwardRate, cfg.out)
	if rep.AsyncOps > 0 {
		fmt.Printf("brsmnload: async: %d tickets, submit p99 %.2fms, complete p99 %.2fms\n",
			rep.AsyncOps, rep.AsyncSubmitLatencyMs.P99, rep.AsyncCompleteLatencyMs.P99)
	}
}
