package sched

import (
	"math/rand"
	"testing"
)

// randomRequests draws overlapping requests: sources and destinations
// chosen freely, so conflicts are common.
func randomRequests(rng *rand.Rand, n, count int) []Request {
	reqs := make([]Request, count)
	for i := range reqs {
		k := 1 + rng.Intn(n/2)
		dests := rng.Perm(n)[:k]
		reqs[i] = Request{Source: rng.Intn(n), Dests: dests}
	}
	return reqs
}

// TestScheduleRoundsAreConflictFree checks no round reuses a source or
// an output, and every request lands in exactly one round.
func TestScheduleRoundsAreConflictFree(t *testing.T) {
	rng := rand.New(rand.NewSource(140))
	for _, n := range []int{8, 32, 128} {
		for trial := 0; trial < 10; trial++ {
			reqs := randomRequests(rng, n, n)
			rounds, err := Schedule(n, reqs)
			if err != nil {
				t.Fatal(err)
			}
			placed := 0
			for i, round := range rounds {
				srcUsed := map[int]bool{}
				outUsed := map[int]bool{}
				for _, r := range round {
					if srcUsed[r.Source] {
						t.Fatalf("n=%d round %d reuses source %d", n, i, r.Source)
					}
					srcUsed[r.Source] = true
					for _, d := range r.Dests {
						if outUsed[d] {
							t.Fatalf("n=%d round %d reuses output %d", n, i, d)
						}
						outUsed[d] = true
					}
					placed++
				}
			}
			if placed != len(reqs) {
				t.Fatalf("n=%d: %d of %d requests placed", n, placed, len(reqs))
			}
			// Greedy never needs more rounds than the conflict degree
			// lower bound times ... it can exceed the lower bound, but
			// never the request count, and must meet the bound when it
			// is the count.
			if len(rounds) > len(reqs) {
				t.Fatalf("n=%d: %d rounds for %d requests", n, len(rounds), len(reqs))
			}
		}
	}
}

// TestScheduleHotOutput checks the serialization case: r requests all
// containing output 0 need exactly r rounds.
func TestScheduleHotOutput(t *testing.T) {
	n := 16
	var reqs []Request
	for i := 0; i < 5; i++ {
		reqs = append(reqs, Request{Source: i, Dests: []int{0, i + 1}})
	}
	rounds, err := Schedule(n, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) != 5 {
		t.Fatalf("%d rounds, want 5", len(rounds))
	}
	if ConflictDegree(n, reqs) != 5 {
		t.Fatalf("conflict degree %d, want 5", ConflictDegree(n, reqs))
	}
}

// TestScheduleDisjointSingleRound checks non-conflicting batches fit one
// round.
func TestScheduleDisjointSingleRound(t *testing.T) {
	n := 16
	reqs := []Request{
		{Source: 0, Dests: []int{1, 2, 3}},
		{Source: 4, Dests: []int{5}},
		{Source: 9, Dests: []int{10, 11}},
	}
	rounds, err := Schedule(n, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) != 1 {
		t.Fatalf("%d rounds, want 1", len(rounds))
	}
}

// TestRouteAllDeliversEveryRequest routes a conflicted batch and checks
// each request's destinations receive its source in its round.
func TestRouteAllDeliversEveryRequest(t *testing.T) {
	rng := rand.New(rand.NewSource(141))
	for _, n := range []int{8, 32} {
		reqs := randomRequests(rng, n, n)
		res, err := RouteAll(n, reqs)
		if err != nil {
			t.Fatal(err)
		}
		for k, r := range reqs {
			round := res.RoundOf[k]
			if round < 0 || round >= len(res.Routed) {
				t.Fatalf("request %d has invalid round %d", k, round)
			}
			for _, d := range r.Dests {
				if got := res.Routed[round].Deliveries[d].Source; got != r.Source {
					t.Fatalf("n=%d request %d: round %d output %d delivered %d, want %d",
						n, k, round, d, got, r.Source)
				}
			}
		}
	}
}

// TestRouteAllDuplicateRequests checks identical requests serialize into
// distinct rounds (the RoundOf bookkeeping must separate them).
func TestRouteAllDuplicateRequests(t *testing.T) {
	n := 8
	reqs := []Request{
		{Source: 1, Dests: []int{2, 3}},
		{Source: 1, Dests: []int{2, 3}},
		{Source: 1, Dests: []int{2, 3}},
	}
	res, err := RouteAll(n, reqs)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for k := range reqs {
		if seen[res.RoundOf[k]] {
			t.Fatalf("duplicate requests share round %d", res.RoundOf[k])
		}
		seen[res.RoundOf[k]] = true
	}
	if len(res.Rounds) != 3 {
		t.Fatalf("%d rounds, want 3", len(res.Rounds))
	}
}

// TestValidation checks the request checks.
func TestValidation(t *testing.T) {
	n := 8
	for _, bad := range []Request{
		{Source: -1, Dests: []int{0}},
		{Source: 8, Dests: []int{0}},
		{Source: 0, Dests: nil},
		{Source: 0, Dests: []int{9}},
		{Source: 0, Dests: []int{1, 1}},
	} {
		if err := bad.Validate(n); err == nil {
			t.Errorf("Validate accepted %+v", bad)
		}
		if _, err := Schedule(n, []Request{bad}); err == nil {
			t.Errorf("Schedule accepted %+v", bad)
		}
	}
	good := Request{Source: 0, Dests: []int{1, 2}}
	if err := good.Validate(n); err != nil {
		t.Errorf("Validate rejected %+v: %v", good, err)
	}
}

// TestConflictDegree covers the bound computation.
func TestConflictDegree(t *testing.T) {
	n := 8
	reqs := []Request{
		{Source: 0, Dests: []int{1}},
		{Source: 0, Dests: []int{2}},
		{Source: 3, Dests: []int{2}},
	}
	// Source 0 twice, output 2 twice -> degree 2.
	if got := ConflictDegree(n, reqs); got != 2 {
		t.Errorf("ConflictDegree = %d, want 2", got)
	}
	if ConflictDegree(n, nil) != 0 {
		t.Error("empty batch degree nonzero")
	}
}
