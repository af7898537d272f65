package core

import (
	"strings"
	"testing"

	"brsmn/internal/mcast"
)

func TestNewPlannerRejectsBadSizes(t *testing.T) {
	for _, n := range []int{0, 1, 3, 6, 100} {
		if _, err := NewPlanner(n); err == nil {
			t.Errorf("NewPlanner(%d) accepted a non-power-of-two size", n)
		}
	}
}

func TestPlannerErrorPaths(t *testing.T) {
	p, err := NewPlanner(8)
	if err != nil {
		t.Fatal(err)
	}
	a := mcast.MustNew(8, [][]int{0: {1, 2}, 3: {5}})

	if _, err := p.RouteWithPayloads(a, []any{"too", "short"}); err == nil ||
		!strings.Contains(err.Error(), "payload") {
		t.Errorf("short payload slice: got %v, want payload-count error", err)
	}
	bad := mcast.Assignment{N: 16, Dests: make([][]int, 16)}
	if _, err := p.Route(bad); err == nil || !strings.Contains(err.Error(), "8") {
		t.Errorf("size-mismatched assignment: got %v, want size error", err)
	}
	overlap := mcast.Assignment{N: 8, Dests: [][]int{0: {1}, 2: {1}, 7: nil}}
	overlap.Dests = append(overlap.Dests, make([][]int, 8-len(overlap.Dests))...)
	overlap.Dests = overlap.Dests[:8]
	if _, err := p.Route(overlap); err == nil {
		t.Error("overlapping destinations routed without error")
	}

	// The planner must stay usable after a failed call.
	res, err := p.Route(a)
	if err != nil {
		t.Fatalf("route after failed calls: %v", err)
	}
	if err := Verify(a, res); err != nil {
		t.Fatal(err)
	}
}

func TestPlannerPool(t *testing.T) {
	pool, err := NewPlannerPool(8)
	if err != nil {
		t.Fatal(err)
	}
	if pool.N() != 8 {
		t.Fatalf("pool.N() = %d, want 8", pool.N())
	}
	pl := pool.Get()
	if pl.N() != 8 {
		t.Fatalf("pooled planner size %d, want 8", pl.N())
	}
	a := mcast.MustNew(8, [][]int{0: {0, 1, 2, 3, 4, 5, 6, 7}})
	res, err := pl.Route(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(a, res); err != nil {
		t.Fatal(err)
	}
	pool.Put(pl)

	// A foreign-sized planner must not enter the pool: a later Get would
	// hand out scratch arrays of the wrong shape.
	wrong, err := NewPlanner(16)
	if err != nil {
		t.Fatal(err)
	}
	pool.Put(wrong)
	pool.Put(nil)
	for i := 0; i < 8; i++ {
		got := pool.Get()
		if got.N() != 8 {
			t.Fatalf("pool handed out an n=%d planner", got.N())
		}
		pool.Put(got)
	}

	if _, err := NewPlannerPool(5); err == nil {
		t.Error("NewPlannerPool(5) accepted a non-power-of-two size")
	}
}

func TestResultCloneDetaches(t *testing.T) {
	p, err := NewPlanner(16)
	if err != nil {
		t.Fatal(err)
	}
	a := mcast.MustNew(16, [][]int{2: {0, 5, 9}, 7: {1, 2}})
	res, err := p.Route(a)
	if err != nil {
		t.Fatal(err)
	}
	clone := res.Clone()
	if err := Verify(a, clone); err != nil {
		t.Fatal(err)
	}
	// Mutating the clone must not reach planner storage, and vice versa.
	clone.Deliveries[0].Source = -99
	clone.Final[0] = 3
	clone.Plans[0].Scatter.Stages[0][0] = 3
	res2, err := p.Route(a)
	if err != nil {
		t.Fatalf("route after clone mutation: %v", err)
	}
	if err := Verify(a, res2); err != nil {
		t.Fatalf("planner storage corrupted through clone: %v", err)
	}
	if clone.Deliveries[0].Source != -99 {
		t.Fatal("clone deliveries overwritten by planner reuse")
	}
}
