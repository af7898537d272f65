// Command brsmnbench regenerates the paper's tables and the scaling
// experiments recorded in EXPERIMENTS.md.
//
// Usage:
//
//	brsmnbench -exp table1
//	brsmnbench -exp table2 -n 1024
//	brsmnbench -exp orders -sizes 16,64,256,1024,4096
//	brsmnbench -exp fig2
//	brsmnbench -exp delay -sizes 8,32,128,512,2048
//	brsmnbench -exp wallclock -n 256 -trials 20
//	brsmnbench -exp splits -n 64
//	brsmnbench -exp all
//
// The wallclock, pipeline and route experiments also emit machine-
// readable JSON for benchmark tracking (the BENCH_route.json artifact):
//
//	brsmnbench -exp route -n 1024 -trials 20 -format json > BENCH_route.json
//
// The recovery experiment measures control-plane restart cost (WAL
// replay vs snapshot restore) and backs the BENCH_recovery.json
// artifact:
//
//	brsmnbench -exp recovery -n 256 -groups 64 -trials 5 -format json > BENCH_recovery.json
//
// The tiers experiment routes a tiny and a dense workload class through
// every planner backend and backs the BENCH_tiers.json artifact:
//
//	brsmnbench -exp tiers -n 1024 -trials 20 -format json > BENCH_tiers.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"brsmn/internal/harness"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: table1, table2, orders, fit, fig2, delay, wallclock, splits, pipeline, util, admission, saturation, route, recovery, tiers, all")
		n        = flag.Int("n", 256, "network size for single-size experiments")
		sizes    = flag.String("sizes", "16,64,256,1024,4096", "comma-separated sizes for sweeps")
		trials   = flag.Int("trials", 10, "assignments per wall-clock measurement")
		seed     = flag.Int64("seed", 1, "random seed")
		format   = flag.String("format", "text", "output format: text or json (json: wallclock, pipeline, route, recovery)")
		groups   = flag.Int("groups", 64, "group population for the recovery experiment")
		baseline = flag.String("baseline", "", "route experiment: committed BENCH_route.json to compare against; exits nonzero if the warm planner regime regresses more than 20%")
	)
	flag.Parse()
	szs, err := parseSizes(*sizes)
	if err == nil {
		switch *format {
		case "text":
			err = run(os.Stdout, *exp, *n, szs, *trials, *seed, *groups, *baseline)
		case "json":
			err = runJSON(os.Stdout, *exp, *n, *trials, *seed, *groups, *baseline)
		default:
			err = fmt.Errorf("unknown format %q", *format)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "brsmnbench:", err)
		os.Exit(1)
	}
}

func parseSizes(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad size %q", f)
		}
		out = append(out, v)
	}
	return out, nil
}

// runJSON handles the experiments with a machine-readable form. The
// text-only experiments reject -format json instead of silently
// falling back.
func runJSON(w io.Writer, exp string, n, trials int, seed int64, groups int, baseline string) error {
	var (
		rep      any
		err      error
		routeRep *harness.RouteBenchReport
	)
	switch exp {
	case "route":
		routeRep, err = harness.RouteBench(n, trials, seed)
		rep = routeRep
	case "wallclock":
		rep, err = harness.WallClockJSON(n, trials, seed)
	case "pipeline":
		rep, err = harness.PipelineJSON(n, 8, seed)
	case "recovery":
		rep, err = harness.RecoveryBench(n, groups, trials, seed)
	case "tiers":
		rep, err = harness.TiersBench(n, trials, seed)
	default:
		return fmt.Errorf("experiment %q has no json output (json: wallclock, pipeline, route, recovery, tiers)", exp)
	}
	if err != nil {
		return err
	}
	out, err := harness.MarshalReport(rep)
	if err != nil {
		return err
	}
	if _, err := io.WriteString(w, out); err != nil {
		return err
	}
	// The report is on stdout either way; a regression only changes the
	// exit status, so CI keeps the artifact alongside the failure.
	if routeRep != nil && baseline != "" {
		return checkBaseline(routeRep, baseline)
	}
	return nil
}

// checkBaseline compares the warm single-threaded planner regime — the
// steady-state replan cost everything downstream budgets around —
// against a committed BENCH_route.json, failing when the median of the
// fresh runs is more than 20% above the baseline's nsPerOp. The
// baseline must describe the same network size; silently comparing
// different n would make the guard meaningless.
func checkBaseline(rep *harness.RouteBenchReport, path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var base harness.RouteBenchReport
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	if base.N != rep.N {
		return fmt.Errorf("baseline %s is for n=%d but the benchmark ran n=%d", path, base.N, rep.N)
	}
	find := func(r *harness.RouteBenchReport) *harness.Measurement {
		for i := range r.Regimes {
			if r.Regimes[i].Name == "planner" {
				return &r.Regimes[i]
			}
		}
		return nil
	}
	got, want := find(rep), find(&base)
	if want == nil {
		return fmt.Errorf("baseline %s has no planner regime", path)
	}
	if got == nil {
		return fmt.Errorf("benchmark produced no planner regime")
	}
	ratio := float64(got.NsPerOp) / float64(want.NsPerOp)
	fmt.Fprintf(os.Stderr, "brsmnbench: planner median %d ns/op (IQR %d) vs baseline %d ns/op (%.2fx)\n",
		got.NsPerOp, got.NsIqr, want.NsPerOp, ratio)
	if ratio > 1.2 {
		return fmt.Errorf("planner regime regressed to %.2fx of baseline %s (limit 1.20x)", ratio, path)
	}
	return nil
}

func run(w io.Writer, exp string, n int, sizes []int, trials int, seed int64, groups int, baseline string) error {
	section := func(body string, err error) error {
		if err != nil {
			return err
		}
		fmt.Fprintln(w, body)
		return nil
	}
	switch exp {
	case "table1":
		return section(harness.Table1(), nil)
	case "table2":
		return section(harness.Table2Concrete(n), nil)
	case "orders":
		return section(harness.Table2Normalized(sizes), nil)
	case "fig2":
		out, err := harness.Fig2()
		return section(out, err)
	case "delay":
		return section(harness.RoutingDelaySweep(sizes), nil)
	case "wallclock":
		out, err := harness.WallClock(n, trials, seed)
		return section(out, err)
	case "splits":
		out, err := harness.SplitStress(n)
		return section(out, err)
	case "pipeline":
		out, err := harness.PipelineExperiment(n, 8, seed)
		return section(out, err)
	case "fit":
		out, err := harness.FitExperiment(sizes)
		return section(out, err)
	case "util":
		out, err := harness.UtilizationExperiment(n, seed)
		return section(out, err)
	case "admission":
		out, err := harness.AdmissionExperiment(n, seed)
		return section(out, err)
	case "saturation":
		out, err := harness.SaturationExperiment(n, 100, seed)
		return section(out, err)
	case "ktradeoff":
		return section(harness.KTradeoffExperiment(n), nil)
	case "tiers":
		rep, err := harness.TiersBench(n, trials, seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "Planner backend tiers, n = %d, %d trials (GOMAXPROCS=%d)\n", rep.N, rep.Trials, rep.GoMaxProcs)
		for _, m := range rep.Tiers {
			fmt.Fprintf(w, "  %-16s %-10s size %5d %12d ns/op %4d passes %5d cols %8d switches %8d allocs/op\n",
				m.Workload, m.Backend, m.GroupSize, m.NsPerOp, m.Passes, m.Depth, m.Switches, m.AllocsPerOp)
		}
		return nil
	case "route":
		rep, err := harness.RouteBench(n, trials, seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "Routing hot-path regimes, n = %d, %d trials (GOMAXPROCS=%d), median of runs\n", rep.N, rep.Trials, rep.GoMaxProcs)
		for _, m := range rep.Regimes {
			fmt.Fprintf(w, "  %-18s %12d ns/op (IQR %9d) %12d B/op %8d allocs/op\n", m.Name, m.NsPerOp, m.NsIqr, m.BytesPerOp, m.AllocsPerOp)
		}
		if baseline != "" {
			return checkBaseline(rep, baseline)
		}
		return nil
	case "recovery":
		rep, err := harness.RecoveryBench(n, groups, trials, seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "Control-plane recovery, n = %d, %d groups, %d trials\n", rep.N, rep.Groups, rep.Trials)
		for _, m := range rep.Scenarios {
			fmt.Fprintf(w, "  %-18s %12d ns/boot  %4d groups %6d replayed records %4d warm plans (snapshot: %v)\n",
				m.Name, m.NsPerOp, m.Groups, m.Records, m.Plans, m.SnapshotLoaded)
		}
		return nil
	case "all":
		for _, e := range []string{"table1", "table2", "orders", "fit", "fig2", "delay", "splits", "pipeline", "util", "admission", "saturation", "ktradeoff", "wallclock", "recovery"} {
			if err := run(w, e, n, sizes, trials, seed, groups, ""); err != nil {
				return fmt.Errorf("%s: %w", e, err)
			}
			fmt.Fprintln(w)
		}
		return nil
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
}
