package brsmn_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"brsmn"
	"brsmn/internal/core"
	"brsmn/internal/workload"
)

// equalResults compares two routed results setting for setting —
// deliveries, last-level switches, and every RBN plan of every level.
// The reused and parallel planners must be indistinguishable from the
// cold path, not merely deliver the same outputs.
func equalResults(t *testing.T, label string, want, got *brsmn.Result) {
	t.Helper()
	if want.N != got.N {
		t.Fatalf("%s: N = %d, want %d", label, got.N, want.N)
	}
	if !reflect.DeepEqual(want.Deliveries, got.Deliveries) {
		t.Fatalf("%s: deliveries differ", label)
	}
	if !reflect.DeepEqual(want.Final, got.Final) {
		t.Fatalf("%s: final-level settings differ", label)
	}
	if len(want.Plans) != len(got.Plans) {
		t.Fatalf("%s: %d level plans, want %d", label, len(got.Plans), len(want.Plans))
	}
	for i := range want.Plans {
		w, g := want.Plans[i], got.Plans[i]
		if w.Level != g.Level || w.Base != g.Base || w.Size != g.Size {
			t.Fatalf("%s: plan %d is (level %d, base %d, size %d), want (level %d, base %d, size %d)",
				label, i, g.Level, g.Base, g.Size, w.Level, w.Base, w.Size)
		}
		if !reflect.DeepEqual(w.Scatter.Stages, g.Scatter.Stages) {
			t.Fatalf("%s: plan %d scatter settings differ", label, i)
		}
		if !reflect.DeepEqual(w.Quasi.Stages, g.Quasi.Stages) {
			t.Fatalf("%s: plan %d quasisort settings differ", label, i)
		}
	}
}

// TestPlannerDifferential pins the zero-allocation pipeline to the cold
// path: for random assignments across sizes, a reused Planner and the
// pooled Network.Route must both produce results identical to a cold
// construct-and-route.
func TestPlannerDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	trials := 20
	if testing.Short() {
		trials = 5
	}
	for _, n := range []int{8, 64, 512} {
		seq, err := brsmn.NewPlanner(n)
		if err != nil {
			t.Fatal(err)
		}
		nw, err := brsmn.New(n)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < trials; trial++ {
			a := workload.Random(rng, n, rng.Float64(), rng.Float64())
			cold, err := core.Route(a)
			if err != nil {
				t.Fatal(err)
			}
			got, err := seq.Route(a)
			if err != nil {
				t.Fatal(err)
			}
			equalResults(t, fmt.Sprintf("n=%d trial %d planner", n, trial), cold, got)
			got, err = nw.Route(a)
			if err != nil {
				t.Fatal(err)
			}
			equalResults(t, fmt.Sprintf("n=%d trial %d network", n, trial), cold, got)
		}
	}
}

// TestPlannerResultLifetime pins the documented aliasing contract: a
// planner result is overwritten by the next Route, and Clone detaches
// it.
func TestPlannerResultLifetime(t *testing.T) {
	n := 16
	p, err := brsmn.NewPlanner(n)
	if err != nil {
		t.Fatal(err)
	}
	a1, err := brsmn.BroadcastAssignment(n, 3)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := brsmn.BroadcastAssignment(n, 9)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Route(a1)
	if err != nil {
		t.Fatal(err)
	}
	detached := res.Clone()
	if _, err := p.Route(a2); err != nil {
		t.Fatal(err)
	}
	// res now aliases the a2 routing; the clone still describes a1.
	if res.Deliveries[0].Source != 9 {
		t.Fatalf("aliased result delivers source %d after reroute, want 9", res.Deliveries[0].Source)
	}
	for out, d := range detached.Deliveries {
		if d.Source != 3 {
			t.Fatalf("cloned result output %d delivers source %d, want 3", out, d.Source)
		}
	}
	if err := brsmn.Verify(a1, detached); err != nil {
		t.Fatalf("cloned result no longer verifies: %v", err)
	}
}

// TestNetworkConcurrentStress shares one Network across 8 goroutines
// under mixed traffic shapes (random, Zipf heavy-tail, broadcast) and
// verifies every result — the -race exercise of the planner pool.
func TestNetworkConcurrentStress(t *testing.T) {
	n := 256
	iters := 12
	if testing.Short() {
		iters = 3
	}
	nw, err := brsmn.New(n)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for i := 0; i < iters; i++ {
				var a brsmn.Assignment
				switch (g + i) % 3 {
				case 0:
					a = brsmn.RandomAssignment(rng, n, 0.8, 0.5)
				case 1:
					a = brsmn.ZipfAssignment(rng, n, 1.3, 0.9)
				default:
					var err error
					a, err = brsmn.BroadcastAssignment(n, rng.Intn(n))
					if err != nil {
						errc <- err
						return
					}
				}
				res, err := nw.Route(a)
				if err != nil {
					errc <- fmt.Errorf("goroutine %d iter %d: %w", g, i, err)
					return
				}
				if err := brsmn.Verify(a, res); err != nil {
					errc <- fmt.Errorf("goroutine %d iter %d: %w", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestRouteReuseAllocations asserts the tentpole property directly: a
// warm reused planner routes with (near) zero heap allocations per
// call.
func TestRouteReuseAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is not meaningful with -short's reduced warm-up")
	}
	n := 256
	p, err := core.NewPlanner(n)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	as := make([]brsmn.Assignment, 4)
	for i := range as {
		as[i] = workload.Random(rng, n, 0.8, 0.5)
	}
	// Warm up: arenas converge to their high-water marks.
	for i := 0; i < 8; i++ {
		if _, err := p.Route(as[i%len(as)]); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	avg := testing.AllocsPerRun(20, func() {
		if _, err := p.Route(as[i%len(as)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	// The steady state is 0; allow a little slack for incidental runtime
	// allocations so the test is not flaky across Go releases.
	if avg > 2 {
		t.Fatalf("reused planner allocates %.1f objects per route, want ~0", avg)
	}
}
