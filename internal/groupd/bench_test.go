package groupd

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"brsmn"
	"brsmn/internal/obs"
)

// benchManager builds an n-port manager with one n/2-member group "g"
// rooted at source 0 (members = the odd outputs, so the plan has real
// multicast structure at every level).
func benchManager(tb testing.TB, n int) *Manager {
	tb.Helper()
	m, err := NewManager(Config{N: n})
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

// BenchmarkRunEpochSteady is one steady-state epoch at n = 1024 over
// 2,000 groups with random sources, so the schedule has real conflicts.
// It prices the whole epoch — schedule, the rounds the previous epoch
// did not already route, and the per-group plan-cache pass with its
// replans — and reports the rounds routed and reused per epoch.
//
//   - uniform: sizes 1-16, one join or leave on one group per epoch;
//   - zipf: brsmnload's default model — sizes 1 + Zipf(1.3, 2) capped at
//     n/2, and 12 joins or leaves per epoch on groups picked by Zipf
//     popularity — the population the epoch-on benchmark workload
//     serves.
func BenchmarkRunEpochSteady(b *testing.B) {
	const (
		n      = 1024
		groups = 2000
	)
	b.Run("uniform", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		m := epochBenchManager(b, n, groups, rng, func() int { return 1 + rng.Intn(16) })
		info, err := m.Get("g0")
		if err != nil {
			b.Fatal(err)
		}
		d := 0 // an output g0 does not serve, toggled in and out
		for slices.Contains(info.Members, d) {
			d++
		}
		runEpochBench(b, m, func(i int) error {
			if i%2 == 0 {
				_, err = m.Join("g0", d)
			} else {
				_, err = m.Leave("g0", d)
			}
			return err
		})
	})
	b.Run("zipf", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		z := rand.NewZipf(rng, 1.3, 2, uint64(n/2-1))
		m := epochBenchManager(b, n, groups, rng, func() int { return 1 + int(z.Uint64()) })
		members := make([][]int, groups)
		for g := range members {
			info, err := m.Get(fmt.Sprintf("g%d", g))
			if err != nil {
				b.Fatal(err)
			}
			members[g] = info.Members
		}
		rank := rng.Perm(groups)
		pop := rand.NewZipf(rng, 1.3, 2, uint64(groups-1))
		runEpochBench(b, m, func(int) error {
			for c := 0; c < 12; c++ {
				g := rank[pop.Uint64()]
				id, ms := fmt.Sprintf("g%d", g), members[g]
				if len(ms) > 1 && rng.Intn(2) == 0 { // leave, never emptying the group
					i := rng.Intn(len(ms))
					if _, err := m.Leave(id, ms[i]); err != nil {
						return err
					}
					ms[i] = ms[len(ms)-1]
					members[g] = ms[:len(ms)-1]
					continue
				}
				d := rng.Intn(n)
				for slices.Contains(ms, d) {
					d = rng.Intn(n)
				}
				if _, err := m.Join(id, d); err != nil {
					return err
				}
				members[g] = append(ms, d)
			}
			return nil
		})
	})
}

// epochBenchManager builds an n-port manager holding groups groups "g0",
// "g1", ... with random sources and size() members each, and runs one
// epoch to route every round and fill the plan cache.
func epochBenchManager(b *testing.B, n, groups int, rng *rand.Rand, size func() int) *Manager {
	b.Helper()
	m, err := NewManager(Config{N: n, CacheSize: 4096, Metrics: obs.NewRegistry()})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { m.Close() })
	for g := 0; g < groups; g++ {
		if _, err := m.Create(fmt.Sprintf("g%d", g), rng.Intn(n), rng.Perm(n)[:size()]); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := m.RunEpoch(); err != nil {
		b.Fatal(err)
	}
	return m
}

// runEpochBench times change(i) followed by one epoch, b.N times, and
// reports the rounds routed and reused per epoch.
func runEpochBench(b *testing.B, m *Manager, change func(i int) error) {
	b.Helper()
	routed0, reused0 := m.met.roundsRouted.Value(), m.met.roundsReused.Value()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := change(i); err != nil {
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

// TestUnchangedEpochAllocs pins the cost of an epoch in which nothing
// changed: every round is reused and every plan hits, so the epoch
// allocates per epoch (the snapshot, the schedule, the report), never
// per group or per round. Eight times the groups may add only the
// schedule's few extra growth steps.
func TestUnchangedEpochAllocs(t *testing.T) {
	const n = 64
	allocsAt := func(groups int) (float64, int) {
		m := newTestManager(t, Config{N: n, CacheSize: 4096})
		rng := rand.New(rand.NewSource(5))
		for g := 0; g < groups; g++ {
			mustCreate(t, m, fmt.Sprintf("g%d", g), rng.Intn(n), rng.Perm(n)[:1+rng.Intn(12)])
		}
		rep, err := m.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := m.RunEpoch(); err != nil {
				t.Fatal(err)
			}
		}), len(rep.Rounds)
	}
	small, smallRounds := allocsAt(40)
	large, largeRounds := allocsAt(320)
	t.Logf("unchanged epoch: %v allocs over %d rounds, %v over %d rounds", small, smallRounds, large, largeRounds)
	if large > small+4 {
		t.Fatalf("unchanged epoch allocations grew with the population: %v at %d rounds, %v at %d rounds",
			small, smallRounds, large, largeRounds)
	}
}

// TestMissedRoundAllocs pins what routing a missed round costs: one
// route on the planner the epoch holds, the round's delivery vector, its
// request list, assignment and memo key — about 8 objects, with no
// goroutine, channel, reorder map or detached Result per round.
// Clearing the memo before each epoch makes every round miss while
// every plan still hits, so the difference from an unchanged epoch is
// the routing of the rounds alone.
func TestMissedRoundAllocs(t *testing.T) {
	const n = 64
	m := newTestManager(t, Config{N: n, CacheSize: 4096})
	rng := rand.New(rand.NewSource(5))
	for g := 0; g < 40; g++ {
		mustCreate(t, m, fmt.Sprintf("g%d", g), rng.Intn(n), rng.Perm(n)[:1+rng.Intn(12)])
	}
	rep, err := m.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	rounds := len(rep.Rounds)
	if rounds < 2 {
		t.Fatalf("population scheduled into %d rounds, want >= 2", rounds)
	}
	epoch := func() {
		if _, err := m.RunEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	unchanged := testing.AllocsPerRun(5, epoch)
	missed := testing.AllocsPerRun(5, func() {
		m.epochMu.Lock()
		m.memo.rows = nil
		m.epochMu.Unlock()
		epoch()
	})
	perRound := (missed - unchanged) / float64(rounds)
	t.Logf("%d rounds: unchanged epoch %v allocs, all rounds missed %v (%.1f per round)", rounds, unchanged, missed, perRound)
	if perRound > 10 {
		t.Fatalf("a missed round allocates %.1f objects, want <= 10", perRound)
	}
}
