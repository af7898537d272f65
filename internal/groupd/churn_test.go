package groupd

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"brsmn/internal/core"
	"brsmn/internal/mcast"
)

// verifyEpoch checks one epoch report against first principles: every
// round must be a conflict-free assignment (disjoint outputs, one request
// per source), its deliveries must match a fresh routing by an
// independent core network, each group must appear in exactly one round,
// and every member of every group must be served. members[id] is the
// membership frozen while no churn runs.
func verifyEpoch(t *testing.T, n int, rep *EpochReport, sources map[string]int, members map[string][]int) {
	t.Helper()
	nw, err := core.New(n)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for r, round := range rep.Rounds {
		dests := make([][]int, n)
		srcUsed := make([]bool, n)
		for _, id := range round.GroupIDs {
			if seen[id] {
				t.Fatalf("group %q scheduled in two rounds", id)
			}
			seen[id] = true
			src := sources[id]
			if srcUsed[src] {
				t.Fatalf("round %d uses source %d twice", r, src)
			}
			srcUsed[src] = true
			for _, d := range members[id] {
				if dests[src] == nil {
					dests[src] = []int{}
				}
				dests[src] = append(dests[src], d)
			}
		}
		a, err := mcast.New(n, dests) // fails if any outputs overlap
		if err != nil {
			t.Fatalf("round %d not conflict-free: %v", r, err)
		}
		res, err := nw.Route(a)
		if err != nil {
			t.Fatalf("round %d fresh routing: %v", r, err)
		}
		for out, d := range res.Deliveries {
			if round.Deliveries[out] != d.Source {
				t.Fatalf("round %d output %d: epoch delivered %d, fresh core delivered %d",
					r, out, round.Deliveries[out], d.Source)
			}
		}
	}
	for id, mem := range members {
		if len(mem) > 0 && !seen[id] {
			t.Fatalf("group %q (%d members) never scheduled", id, len(mem))
		}
	}
}

// TestChurnSoak drives random join/leave/route cycles and checks every
// epoch's rounds against a fresh core routing.
func TestChurnSoak(t *testing.T) {
	const (
		n      = 32
		groups = 10
		cycles = 15
	)
	rng := rand.New(rand.NewSource(42))
	m := newTestManager(t, Config{N: n, CacheSize: 8})

	for g := 0; g < groups; g++ {
		// Sources collide on purpose: the scheduler must separate them.
		mustCreate(t, m, fmt.Sprintf("g%d", g), rng.Intn(n/2), nil)
	}
	for cycle := 0; cycle < cycles; cycle++ {
		for op := 0; op < 3*groups; op++ {
			id := fmt.Sprintf("g%d", rng.Intn(groups))
			d := rng.Intn(n)
			g, err := m.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			joined := false
			for _, mem := range g.Members {
				if mem == d {
					joined = true
					break
				}
			}
			if joined {
				if _, err := m.Leave(id, d); err != nil {
					t.Fatal(err)
				}
			} else if _, err := m.Join(id, d); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := m.RunEpoch()
		if err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		sources := map[string]int{}
		members := map[string][]int{}
		for _, g := range m.List() {
			if g.Size > 0 {
				sources[g.ID] = g.Source
				members[g.ID] = g.Members
			}
		}
		verifyEpoch(t, n, rep, sources, members)
	}
	st := m.CacheStats()
	if st.Misses == 0 || st.Invalidations == 0 {
		t.Fatalf("soak never exercised the cache: %+v", st)
	}
}

// TestConcurrentChurn hammers the manager from many goroutines while the
// background epoch loop runs — the -race workout for the group
// registry, per-session locks, plan cache and epoch snapshotting.
func TestConcurrentChurn(t *testing.T) {
	const (
		n       = 16
		workers = 8
		ops     = 150
	)
	m := newTestManager(t, Config{
		N:              n,
		CacheSize:      8,
		EpochPeriod:    time.Millisecond,
		EpochThreshold: 10,
	})
	for g := 0; g < 6; g++ {
		mustCreate(t, m, fmt.Sprintf("g%d", g), g, nil)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < ops; i++ {
				id := fmt.Sprintf("g%d", rng.Intn(8)) // g6, g7 mostly missing: exercises ErrNotFound
				switch rng.Intn(10) {
				case 0:
					_, _ = m.Create(id, rng.Intn(n), nil) // ErrExists races are fine
				case 1:
					_ = m.Delete(id)
				case 2:
					_, _ = m.Get(id)
				case 3:
					_, _ = m.Plan(id)
				case 4:
					_, _ = m.RunEpoch()
				default:
					if rng.Intn(2) == 0 {
						_, _ = m.Join(id, rng.Intn(n))
					} else {
						_, _ = m.Leave(id, rng.Intn(n))
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()
	if _, err := m.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	rep := m.LastEpoch()
	if rep == nil || rep.Err != "" {
		t.Fatalf("final report = %+v", rep)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}
