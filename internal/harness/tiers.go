package harness

import (
	"fmt"
	"math/rand"
	"runtime"

	"brsmn/internal/backend"
	"brsmn/internal/mcast"
	"brsmn/internal/workload"
)

// TierMeasurement is one (backend, workload) cell of the tiers
// benchmark: the warm route latency plus what the produced program
// spends — switch columns (depth), switch count, and injection passes.
type TierMeasurement struct {
	Backend     string `json:"backend"`
	Workload    string `json:"workload"`
	GroupSize   int    `json:"groupSize"`
	NsPerOp     int64  `json:"nsPerOp"`
	AllocsPerOp uint64 `json:"allocsPerOp"`
	BytesPerOp  uint64 `json:"bytesPerOp"`
	Passes      int    `json:"passes"`
	Depth       int    `json:"depth"`
	Switches    int    `json:"switches"`
}

// TiersReport is the machine-readable tiers benchmark behind
// BENCH_tiers.json: every planner backend routing a tiny and a dense
// workload class, so the fabrics' planning costs compare in one table.
type TiersReport struct {
	Experiment string            `json:"experiment"`
	N          int               `json:"n"`
	Trials     int               `json:"trials"`
	Seed       int64             `json:"seed"`
	GoMaxProcs int               `json:"gomaxprocs"`
	Tiers      []TierMeasurement `json:"tiers"`
}

// TiersBench routes two workload classes — a tiny fanout-2 group (the
// permnet sweet spot) and a dense random multicast (the brsmn/feedback
// regime) — through all three planner backends at size n, measuring the
// warm route path of each. Programs are recomputed every trial; "warm"
// means the backend's pools and arenas are at steady state, the serving
// layer's plan cache is deliberately out of the picture.
func TiersBench(n, trials int, seed int64) (*TiersReport, error) {
	if trials < 1 {
		trials = 1
	}
	rng := rand.New(rand.NewSource(seed))
	// One source, fanout 2, everyone else idle — the smallest multicast
	// group, where permnet needs the fewest passes.
	tinyDests := make([][]int, n)
	tinyDests[0] = []int{1, 2}
	tiny, err := mcast.New(n, tinyDests)
	if err != nil {
		return nil, err
	}
	dense := workload.Random(rng, n, 0.8, 0.5)
	size := func(a mcast.Assignment) int {
		total := 0
		for _, ds := range a.Dests {
			total += len(ds)
		}
		return total
	}

	backends, err := backend.All(n)
	if err != nil {
		return nil, err
	}
	rep := &TiersReport{
		Experiment: "tiers",
		N:          n,
		Trials:     trials,
		Seed:       seed,
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	for _, wl := range []struct {
		name string
		a    mcast.Assignment
	}{
		{"tiny-fanout2", tiny},
		{"dense-multicast", dense},
	} {
		for _, t := range backend.Tiers() {
			b := backends[t]
			r, err := b.Route(wl.a)
			if err != nil {
				return nil, fmt.Errorf("harness: %s on %s: %w", b.Name(), wl.name, err)
			}
			m, err := measure(b.Name(), trials, func() error {
				_, err := b.Route(wl.a)
				return err
			})
			if err != nil {
				return nil, err
			}
			rep.Tiers = append(rep.Tiers, TierMeasurement{
				Backend:     b.Name(),
				Workload:    wl.name,
				GroupSize:   size(wl.a),
				NsPerOp:     m.NsPerOp,
				AllocsPerOp: m.AllocsPerOp,
				BytesPerOp:  m.BytesPerOp,
				Passes:      r.Passes,
				Depth:       len(r.Columns),
				Switches:    len(r.Columns) * n / 2,
			})
		}
	}
	return rep, nil
}
