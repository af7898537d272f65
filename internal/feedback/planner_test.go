package feedback

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"brsmn/internal/workload"
)

// TestPlannerMatchesNetwork routes random traffic through one reused
// Planner and checks every delivery against a fresh Network.Route call —
// the reuse path must not leak state between routes.
func TestPlannerMatchesNetwork(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	for _, n := range []int{2, 4, 8, 32, 128} {
		pl, err := NewPlanner(n)
		if err != nil {
			t.Fatal(err)
		}
		nw, err := New(n)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 20; trial++ {
			a := workload.Random(rng, n, rng.Float64(), rng.Float64())
			got, err := pl.Route(a)
			if err != nil {
				t.Fatalf("n=%d %v: planner: %v", n, a, err)
			}
			want, err := nw.Route(a)
			if err != nil {
				t.Fatalf("n=%d %v: network: %v", n, a, err)
			}
			if got.NumPasses() != want.NumPasses() {
				t.Fatalf("n=%d: planner took %d passes, network %d", n, got.NumPasses(), want.NumPasses())
			}
			for out := range got.Deliveries {
				if got.Deliveries[out].Source != want.Deliveries[out].Source {
					t.Fatalf("n=%d %v: output %d: planner %d vs network %d",
						n, a, out, got.Deliveries[out].Source, want.Deliveries[out].Source)
				}
			}
		}
	}
}

// TestPlannerResultDetached checks that Network.Route's result survives
// the pooled planner being reused for a different assignment.
func TestPlannerResultDetached(t *testing.T) {
	n := 16
	nw, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	first, err := nw.Route(workload.Broadcast(n, 3))
	if err != nil {
		t.Fatal(err)
	}
	snapshot := make([]int, n)
	for i, d := range first.Deliveries {
		snapshot[i] = d.Source
	}
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 10; trial++ {
		if _, err := nw.Route(workload.Random(rng, n, 0.9, 0.5)); err != nil {
			t.Fatal(err)
		}
	}
	for i, d := range first.Deliveries {
		if d.Source != snapshot[i] {
			t.Fatalf("output %d of retained result changed from %d to %d", i, snapshot[i], d.Source)
		}
	}
}

// TestNetworkConcurrentRoute shares one Network across goroutines, each
// routing its own random traffic, and checks every delivery against the
// assignment's owner map — the -race exercise of the planner pool.
func TestNetworkConcurrentRoute(t *testing.T) {
	const n, goroutines, iters = 32, 4, 20
	nw, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(70 + g)))
			for i := 0; i < iters; i++ {
				a := workload.Random(rng, n, rng.Float64(), rng.Float64())
				res, err := nw.Route(a)
				if err != nil {
					errc <- fmt.Errorf("goroutine %d route %d: %w", g, i, err)
					return
				}
				for out, want := range a.OutputOwner() {
					if got := res.Deliveries[out].Source; got != want {
						errc <- fmt.Errorf("goroutine %d route %d: output %d got source %d, want %d", g, i, out, got, want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestPlannerWarmRouteAllocs asserts the planner's steady-state route is
// allocation-free — the discipline core.Planner set and this package's
// pooled path must match.
func TestPlannerWarmRouteAllocs(t *testing.T) {
	n := 64
	pl, err := NewPlanner(n)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(62))
	a := workload.Random(rng, n, 0.8, 0.6)
	for i := 0; i < 4; i++ { // warm the arena and scratch to steady state
		if _, err := pl.Route(a); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := pl.Route(a); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("warm Planner.Route allocates %.1f objects/op, want 0", allocs)
	}
}

// BenchmarkPlannerRoute measures the reused-planner route path; the
// ReportAllocs output is the satellite claim — 0 allocs/op warm.
func BenchmarkPlannerRoute(b *testing.B) {
	for _, n := range []int{64, 1024} {
		b.Run(benchName(n), func(b *testing.B) {
			pl, err := NewPlanner(n)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(63))
			a := workload.Random(rng, n, 0.8, 0.6)
			if _, err := pl.Route(a); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pl.Route(a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNetworkRoute is the detached-result path (pooled planner +
// per-call Result clone) the zero-allocation planner is measured
// against.
func BenchmarkNetworkRoute(b *testing.B) {
	for _, n := range []int{64, 1024} {
		b.Run(benchName(n), func(b *testing.B) {
			nw, err := New(n)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(63))
			a := workload.Random(rng, n, 0.8, 0.6)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := nw.Route(a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchName(n int) string { return fmt.Sprintf("n=%d", n) }
