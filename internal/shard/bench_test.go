package shard

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"brsmn/internal/groupd"
)

// benchSet builds a K-shard set at size n with `groups` groups of n/2
// members each — real multicast structure at every level, spread over
// the placement ring.
func benchSet(tb testing.TB, shards, n, groups int) (*Set, []string) {
	tb.Helper()
	s, err := New(Config{
		Shards:     shards,
		QueueDepth: 1024,
		BatchMax:   64,
		Group:      groupd.Config{N: n},
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	members := make([]int, 0, n/2)
	for d := 1; d < n; d += 2 {
		members = append(members, d)
	}
	ids := make([]string, 0, groups)
	for g := 0; g < groups; g++ {
		id := fmt.Sprintf("bench-%d", g)
		if _, err := s.Create(context.Background(), id, 0, members); err != nil {
			tb.Fatal(err)
		}
		ids = append(ids, id)
	}
	return s, ids
}

// BenchmarkAdmitPlanWarm measures the admitted steady route path — a
// warm plan through placement, the admission queue, and a worker —
// against the shard counts the daemon ships with.
func BenchmarkAdmitPlanWarm(b *testing.B) {
	for _, k := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", k), func(b *testing.B) {
			s, ids := benchSet(b, k, 1024, 16)
			for _, id := range ids {
				if _, err := s.Plan(context.Background(), id); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					if _, err := s.Plan(context.Background(), ids[i%len(ids)]); err != nil {
						b.Fatal(err)
					}
					i++
				}
			})
		})
	}
}

// coldRoutesPerSec drives cold replans (join/leave bumps the generation
// before every plan, forcing the full route+flatten+encode pipeline)
// from `drivers` goroutines and returns completed plans per second.
func coldRoutesPerSec(tb testing.TB, s *Set, ids []string, drivers, plansPerDriver int) float64 {
	tb.Helper()
	var planned atomic.Uint64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < drivers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < plansPerDriver; i++ {
				id := ids[(w+i*drivers)%len(ids)]
				if _, err := s.Join(context.Background(), id, 0); err != nil {
					tb.Error(err)
					return
				}
				if _, err := s.Leave(context.Background(), id, 0); err != nil {
					tb.Error(err)
					return
				}
				p, err := s.Plan(context.Background(), id)
				if err != nil {
					tb.Error(err)
					return
				}
				if p.Cached {
					tb.Error("cold plan hit the cache")
					return
				}
				planned.Add(1)
			}
		}(w)
	}
	wg.Wait()
	return float64(planned.Load()) / time.Since(start).Seconds()
}

// TestShardScalingThroughput pins the tentpole acceptance bar: with 4
// shards on >= 8 cores, the serving layer sustains at least 3x the
// single-shard cold routes/sec at n = 1024. Each driver's stream is
// disjoint (one group per driver), so throughput is bounded by worker
// parallelism — exactly what sharding buys.
func TestShardScalingThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	if runtime.NumCPU() < 8 {
		t.Skipf("need >= 8 cores for the 4-shard scaling bar, have %d", runtime.NumCPU())
	}
	const n = 1024
	const drivers = 8
	const plansPerDriver = 12

	// Group IDs chosen so the 4-shard ring spreads the 8 driver streams
	// over every shard (placementInvariant tests cover correctness; here
	// we only need non-degenerate spread, which 16 candidates give).
	s1, ids := benchSet(t, 1, n, 16)
	warm := func(s *Set) {
		for _, id := range ids {
			if _, err := s.Plan(context.Background(), id); err != nil {
				t.Fatal(err)
			}
		}
	}
	warm(s1)
	single := coldRoutesPerSec(t, s1, ids, drivers, plansPerDriver)
	s1.Close()

	s4, _ := benchSet(t, 4, n, 16)
	warm(s4)
	sharded := coldRoutesPerSec(t, s4, ids, drivers, plansPerDriver)

	t.Logf("cold routes/sec: 1 shard = %.1f, 4 shards = %.1f (%.2fx)", single, sharded, sharded/single)
	if sharded < 3*single {
		t.Fatalf("4-shard throughput %.1f routes/sec < 3x single-shard %.1f", sharded, single)
	}
}
