package harness

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"brsmn/internal/benes"
	"brsmn/internal/copynet"
	"brsmn/internal/core"
	"brsmn/internal/feedback"
	"brsmn/internal/mcast"
	"brsmn/internal/netsim"
	"brsmn/internal/workload"
)

// Measurement is one measured routing regime: mean wall-clock time and
// mean heap allocation per routed assignment. Allocation figures come
// from runtime.MemStats deltas around the whole trial loop; every regime
// runs on one goroutine, so they are exact. A regime measured over several runs (RouteBench) reports the median
// run's nsPerOp and the interquartile range of the runs as nsIqr.
type Measurement struct {
	Name        string `json:"name"`
	NsPerOp     int64  `json:"nsPerOp"`
	NsIqr       int64  `json:"nsIqr,omitempty"`
	AllocsPerOp uint64 `json:"allocsPerOp"`
	BytesPerOp  uint64 `json:"bytesPerOp"`
}

func measure(name string, trials int, f func() error) (Measurement, error) {
	// One untimed warm-up pass lets pooled arenas reach steady state so
	// the numbers describe the regime, not its first call.
	if err := f(); err != nil {
		return Measurement{}, err
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < trials; i++ {
		if err := f(); err != nil {
			return Measurement{}, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	t := uint64(trials)
	return Measurement{
		Name:        name,
		NsPerOp:     elapsed.Nanoseconds() / int64(trials),
		AllocsPerOp: (after.Mallocs - before.Mallocs) / t,
		BytesPerOp:  (after.TotalAlloc - before.TotalAlloc) / t,
	}, nil
}

// routeRuns is how many times RouteBench measures each regime, so a
// single noisy run neither sets nor hides a regression.
const routeRuns = 5

// measureRuns measures a regime routeRuns times and reports the median
// nsPerOp with the interquartile range of the runs (the second and
// fourth of five sorted values); allocation figures are the median
// run's.
func measureRuns(name string, trials int, f func() error) (Measurement, error) {
	runs := make([]Measurement, routeRuns)
	for r := range runs {
		m, err := measure(name, trials, f)
		if err != nil {
			return Measurement{}, err
		}
		runs[r] = m
	}
	sort.Slice(runs, func(a, b int) bool { return runs[a].NsPerOp < runs[b].NsPerOp })
	med := runs[routeRuns/2]
	med.NsIqr = runs[3*routeRuns/4].NsPerOp - runs[routeRuns/4].NsPerOp
	return med, nil
}

// RouteBenchReport is the machine-readable routing benchmark behind
// BENCH_route.json: the planning pipeline's allocation/latency regimes
// on one batch of random assignments.
type RouteBenchReport struct {
	Experiment string        `json:"experiment"`
	N          int           `json:"n"`
	Trials     int           `json:"trials"`
	Seed       int64         `json:"seed"`
	GoMaxProcs int           `json:"gomaxprocs"`
	NumCPU     int           `json:"numCpu"`
	Regimes    []Measurement `json:"regimes"`
}

// RouteBench measures the routing hot path across its regimes: a cold
// network construction per routing, the pooled concurrency-safe
// Network.Route, a reused Planner, and single-membership plan patching
// against a dense retained route ("delta-churn"). Each regime is
// measured routeRuns times.
func RouteBench(n, trials int, seed int64) (*RouteBenchReport, error) {
	if trials < 1 {
		trials = 1
	}
	rng := rand.New(rand.NewSource(seed))
	as := make([]mcast.Assignment, 8)
	for i := range as {
		as[i] = workload.Random(rng, n, 0.8, 0.5)
	}
	next := func(i int) mcast.Assignment { return as[i%len(as)] }

	rep := &RouteBenchReport{
		Experiment: "route",
		N:          n,
		Trials:     trials,
		Seed:       seed,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}

	i := 0
	cold, err := measureRuns("cold", trials, func() error {
		nw, err := core.New(n)
		if err != nil {
			return err
		}
		_, err = nw.Route(next(i))
		i++
		return err
	})
	if err != nil {
		return nil, err
	}
	rep.Regimes = append(rep.Regimes, cold)

	nw, err := core.New(n)
	if err != nil {
		return nil, err
	}
	i = 0
	network, err := measureRuns("network", trials, func() error {
		_, err := nw.Route(next(i))
		i++
		return err
	})
	if err != nil {
		return nil, err
	}
	rep.Regimes = append(rep.Regimes, network)

	pl, err := core.NewPlanner(n)
	if err != nil {
		return nil, err
	}
	i = 0
	planner, err := measureRuns("planner", trials, func() error {
		_, err := pl.Route(next(i))
		i++
		return err
	})
	if err != nil {
		return nil, err
	}
	rep.Regimes = append(rep.Regimes, planner)

	// Delta-churn: one output toggling in and out of a dense n-1 member
	// group. The toggled output's sibling stays a member, so every op is
	// the deep-leaf patch — the near-constant-time regime the incremental
	// path promises for single-member churn.
	pld, err := core.NewPlanner(n)
	if err != nil {
		return nil, err
	}
	dense := make([][]int, n)
	for d := 1; d < n; d++ {
		dense[0] = append(dense[0], d)
	}
	da, err := mcast.New(n, dense)
	if err != nil {
		return nil, err
	}
	if _, err := pld.Route(da); err != nil {
		return nil, err
	}
	join := false // output 2 starts as a member: the first op leaves
	churn, err := measureRuns("delta-churn", trials, func() error {
		_, _, err := pld.RoutePatch(0, 2, join)
		join = !join
		return err
	})
	if err != nil {
		return nil, err
	}
	rep.Regimes = append(rep.Regimes, churn)
	return rep, nil
}

// WallClockReport is the machine-readable form of WallClock.
type WallClockReport struct {
	Experiment string        `json:"experiment"`
	N          int           `json:"n"`
	Trials     int           `json:"trials"`
	Seed       int64         `json:"seed"`
	Networks   []Measurement `json:"networks"`
}

// WallClockJSON measures the same four networks as WallClock and
// returns the structured report.
func WallClockJSON(n, trials int, seed int64) (*WallClockReport, error) {
	rng := rand.New(rand.NewSource(seed))
	assignments := make([]mcast.Assignment, trials)
	for i := range assignments {
		assignments[i] = workload.Random(rng, n, 0.8, 0.5)
	}
	un, err := core.New(n)
	if err != nil {
		return nil, err
	}
	fb, err := feedback.New(n)
	if err != nil {
		return nil, err
	}
	cn, err := copynet.New(n)
	if err != nil {
		return nil, err
	}
	rep := &WallClockReport{Experiment: "wallclock", N: n, Trials: trials, Seed: seed}
	batch := func(f func(mcast.Assignment) error) func() error {
		i := 0
		return func() error {
			err := f(assignments[i%len(assignments)])
			i++
			return err
		}
	}
	for _, spec := range []struct {
		name string
		f    func(mcast.Assignment) error
	}{
		{"brsmn-unrolled", func(a mcast.Assignment) error { _, err := un.Route(a); return err }},
		{"brsmn-feedback", func(a mcast.Assignment) error { _, err := fb.Route(a); return err }},
		{"copynet-benes", func(a mcast.Assignment) error { _, err := cn.Route(a); return err }},
		{"benes-unicast", func(a mcast.Assignment) error {
			perm := make([]int, a.N)
			owner := a.OutputOwner()
			for i := range perm {
				perm[i] = -1
			}
			for out, in := range owner {
				if in >= 0 && perm[in] < 0 {
					perm[in] = out
				}
			}
			_, err := benes.RoutePermutation(perm)
			return err
		}},
	} {
		m, err := measure(spec.name, trials, batch(spec.f))
		if err != nil {
			return nil, err
		}
		rep.Networks = append(rep.Networks, m)
	}
	return rep, nil
}

// PipelineReport is the machine-readable form of PipelineExperiment.
type PipelineReport struct {
	Experiment string          `json:"experiment"`
	N          int             `json:"n"`
	Waves      int             `json:"waves"`
	Seed       int64           `json:"seed"`
	Gaps       []PipelinePoint `json:"gaps"`
}

// PipelinePoint is one injection-gap row of the pipelined simulation.
type PipelinePoint struct {
	Gap                int     `json:"gap"`
	Depth              int     `json:"depth"`
	Makespan           int     `json:"makespan"`
	SequentialMakespan int     `json:"sequentialMakespan"`
	Speedup            float64 `json:"speedup"`
	MaxColumnsBusy     int     `json:"maxColumnsBusy"`
}

// PipelineJSON runs the pipelined fabric simulation and returns the
// structured report.
func PipelineJSON(n, waves int, seed int64) (*PipelineReport, error) {
	rng := rand.New(rand.NewSource(seed))
	as := make([]mcast.Assignment, waves)
	for i := range as {
		as[i] = workload.Random(rng, n, 0.8, 0.5)
	}
	rep := &PipelineReport{Experiment: "pipeline", N: n, Waves: waves, Seed: seed}
	for _, gap := range []int{1, 2, 4} {
		r, err := netsim.Pipeline(as, gap)
		if err != nil {
			return nil, err
		}
		rep.Gaps = append(rep.Gaps, PipelinePoint{
			Gap:                gap,
			Depth:              r.Depth,
			Makespan:           r.Makespan,
			SequentialMakespan: r.SequentialMakespan,
			Speedup:            r.Speedup(),
			MaxColumnsBusy:     r.MaxColumnsBusy,
		})
	}
	return rep, nil
}

// MarshalReport renders any of the structured reports as indented JSON
// with a trailing newline, the on-disk format of BENCH_route.json.
func MarshalReport(v any) (string, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return "", fmt.Errorf("harness: encoding report: %w", err)
	}
	return string(b) + "\n", nil
}
