package groupd

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"brsmn"
	"brsmn/internal/obs"
	"brsmn/internal/rbn"
)

// benchManager builds an n-port manager with one n/2-member group "g"
// rooted at source 0 (members = the odd outputs, so the plan has real
// multicast structure at every level).
func benchManager(tb testing.TB, n int) *Manager {
	tb.Helper()
	m, err := NewManager(Config{N: n, Engine: rbn.Sequential})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { m.Close() })
	members := make([]int, 0, n/2)
	for d := 1; d < n; d += 2 {
		members = append(members, d)
	}
	if _, err := m.Create("g", 0, members); err != nil {
		tb.Fatal(err)
	}
	return m
}

// BenchmarkPlanWarm1024 is the rerouting path for an unchanged group: a
// plan-cache hit.
func BenchmarkPlanWarm1024(b *testing.B) {
	m := benchManager(b, 1024)
	if _, err := m.Plan("g"); err != nil { // warm
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := m.Plan("g")
		if err != nil {
			b.Fatal(err)
		}
		if !p.Cached {
			b.Fatal("warm plan missed the cache")
		}
	}
}

// BenchmarkPlanCold1024 is the rerouting path for a changed group: a full
// O(n log^2 n) replan (the generation is bumped every iteration by a
// join/leave toggle, which itself costs only O(log n)).
func BenchmarkPlanCold1024(b *testing.B) {
	m := benchManager(b, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Join("g", 0); err != nil {
			b.Fatal(err)
		}
		if _, err := m.Leave("g", 0); err != nil {
			b.Fatal(err)
		}
		p, err := m.Plan("g")
		if err != nil {
			b.Fatal(err)
		}
		if p.Cached {
			b.Fatal("cold plan hit the cache")
		}
	}
}

// BenchmarkJoinLeave compares the incremental membership path across
// sizes: the cost must track log n, not n.
func BenchmarkJoinLeave(b *testing.B) {
	for _, n := range []int{64, 1024, 16384} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			m := benchManager(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Join("g", 0); err != nil {
					b.Fatal(err)
				}
				if _, err := m.Leave("g", 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRunEpochSteady is one steady-state epoch at n = 1024: 2,000
// groups (seeded sizes 1-16, sources drawn at random, so the schedule
// has real conflicts) with one join or leave between epochs. It prices
// the whole epoch — schedule, the rounds the previous epoch did not
// already route, and the per-group plan-cache pass with one replan.
func BenchmarkRunEpochSteady(b *testing.B) {
	const (
		n      = 1024
		groups = 2000
	)
	m, err := NewManager(Config{N: n, Engine: rbn.Sequential, CacheSize: 4096, Metrics: obs.NewRegistry()})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { m.Close() })
	rng := rand.New(rand.NewSource(1))
	for g := 0; g < groups; g++ {
		if _, err := m.Create(fmt.Sprintf("g%d", g), rng.Intn(n), rng.Perm(n)[:1+rng.Intn(16)]); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := m.RunEpoch(); err != nil { // route every round, fill the cache
		b.Fatal(err)
	}
	info, err := m.Get("g0")
	if err != nil {
		b.Fatal(err)
	}
	d := 0 // an output g0 does not serve, toggled in and out
	for slices.Contains(info.Members, d) {
		d++
	}
	routed0, reused0 := m.met.roundsRouted.Value(), m.met.roundsReused.Value()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			_, err = m.Join("g0", d)
		} else {
			_, err = m.Leave("g0", d)
		}
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.RunEpoch(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(m.met.roundsRouted.Value()-routed0)/float64(b.N), "routed/op")
	b.ReportMetric(float64(m.met.roundsReused.Value()-reused0)/float64(b.N), "reused/op")
}

// TestWarmPlanSpeedup pins the acceptance bar: at n = 1024, rerouting an
// unchanged group from the plan cache must beat a cold full replan by at
// least 10x. (Measured gap is orders of magnitude; 10x keeps the test
// robust on noisy machines.)
func TestWarmPlanSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	const n = 1024
	m := benchManager(t, n)

	const coldIters = 5
	cold := time.Duration(0)
	for i := 0; i < coldIters; i++ {
		if _, err := m.Join("g", 0); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Leave("g", 0); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		p, err := m.Plan("g")
		if err != nil {
			t.Fatal(err)
		}
		cold += time.Since(start)
		if p.Cached {
			t.Fatal("cold iteration hit the cache")
		}
	}

	const warmIters = 200
	if _, err := m.Plan("g"); err != nil {
		t.Fatal(err)
	}
	warm := time.Duration(0)
	for i := 0; i < warmIters; i++ {
		start := time.Now()
		p, err := m.Plan("g")
		if err != nil {
			t.Fatal(err)
		}
		warm += time.Since(start)
		if !p.Cached {
			t.Fatal("warm iteration missed the cache")
		}
	}

	coldPer := cold / coldIters
	warmPer := warm / warmIters
	t.Logf("n=%d cold replan %v/op, warm cache hit %v/op (%.0fx)",
		n, coldPer, warmPer, float64(coldPer)/float64(warmPer))
	if coldPer < 10*warmPer {
		t.Fatalf("warm plan only %.1fx faster than cold replan (cold %v, warm %v)",
			float64(coldPer)/float64(warmPer), coldPer, warmPer)
	}
}

// TestJoinLeaveAllocsLogN pins the other half of the churn bar: a
// join/leave round trip touches O(log n) tag-tree nodes in place, so its
// allocation count must not grow with n.
func TestJoinLeaveAllocsLogN(t *testing.T) {
	allocsAt := func(n int) float64 {
		g, err := brsmn.NewGroup(n, 0)
		if err != nil {
			t.Fatal(err)
		}
		for d := 1; d < n; d += 2 {
			if err := g.Join(d); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(200, func() {
			if err := g.Join(0); err != nil {
				t.Fatal(err)
			}
			if err := g.Leave(0); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocsAt(1<<6), allocsAt(1<<14)
	t.Logf("join+leave allocations: %v at n=64, %v at n=16384", small, large)
	if large > small {
		t.Fatalf("join/leave allocations grew with n: %v at n=64 vs %v at n=16384", small, large)
	}
	if large > 4 {
		t.Fatalf("join/leave allocates %v objects per round trip, want O(1) slices", large)
	}

	// The managed path (registry lookup, generation bump, cache
	// invalidation) must stay O(log n) too.
	m := benchManager(t, 1<<12)
	managed := testing.AllocsPerRun(200, func() {
		if _, err := m.Join("g", 0); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Leave("g", 0); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("managed join+leave allocations at n=4096: %v", managed)
	if managed > 8 {
		t.Fatalf("managed join/leave allocates %v objects per round trip", managed)
	}
}
