package core

import (
	"reflect"
	"testing"

	"brsmn/internal/mcast"
	"brsmn/internal/obs"
)

// permAssignment is the workload that maximizes arena retention: every
// input active, so the sequence arena grows to n*(n-1) tags.
func permAssignment(n int) mcast.Assignment {
	dests := make([][]int, n)
	for i := range dests {
		dests[i] = []int{i}
	}
	return mcast.MustNew(n, dests)
}

func sparseAssignment(n int) mcast.Assignment {
	dests := make([][]int, n)
	dests[0] = []int{1}
	return mcast.MustNew(n, dests)
}

// TestPoolShrinksOversizedArenas is the retention-policy regression
// test: a dense (full permutation) route grows a pooled planner's
// arenas far past the structural baseline, and a following sparse
// steady state must release them — unbounded high-water retention was
// the bug.
func TestPoolShrinksOversizedArenas(t *testing.T) {
	const n = 1024
	pool, err := NewPlannerPool(n)
	if err != nil {
		t.Fatal(err)
	}
	dense := permAssignment(n)
	pl := pool.Get()
	// Route twice: the first route grows the arenas chunk by chunk, the
	// second records steady-state usage in them.
	for i := 0; i < 2; i++ {
		if _, err := pl.Route(dense); err != nil {
			t.Fatal(err)
		}
	}
	denseRetained := int64(pl.RetainedTagBytes())
	if denseRetained <= shrinkFactor*baselineTagBytes(n) {
		t.Fatalf("dense retention %d under the shrink threshold %d; workload too small to exercise the policy",
			denseRetained, shrinkFactor*baselineTagBytes(n))
	}
	// Register the dense need through the policy without surrendering
	// the planner: sync.Pool randomly drops stored items under the race
	// detector, so the test holds the dense planner itself and only
	// routes its maintenance through the pool.
	pool.maintain(pl)
	if st := pool.Stats(); st.Shrinks != 0 {
		t.Fatalf("planner shrunk while the dense need is fresh: %+v", st)
	}

	// Sparse steady state: the need estimate decays until the retained
	// dense arenas exceed shrinkFactor times it.
	sparse := sparseAssignment(n)
	for i := 0; i < 100; i++ {
		spl := pool.Get()
		if _, err := spl.Route(sparse); err != nil {
			t.Fatal(err)
		}
		pool.Put(spl)
	}
	// The dense planner joins the sparse steady state (one sparse route,
	// so its last-used figure reflects the new regime, not the dense
	// burst) and comes back to a pool whose recent need is sparse: the
	// policy must release its arenas on the way in.
	if _, err := pl.Route(sparse); err != nil {
		t.Fatal(err)
	}
	pool.Put(pl)
	st := pool.Stats()
	if st.Shrinks == 0 {
		t.Fatalf("no shrink after 100 sparse routes: %+v", st)
	}
	if st.RetainedHighWaterBytes < denseRetained {
		t.Fatalf("high-water %d below observed dense retention %d", st.RetainedHighWaterBytes, denseRetained)
	}
	if got := int64(pl.RetainedTagBytes()); got >= denseRetained/shrinkFactor {
		t.Fatalf("dense planner still retains %d after the sparse steady state; want well under %d",
			got, denseRetained)
	}

	// A shrunk planner regrows to sparse need only.
	pl = pool.Get()
	if _, err := pl.Route(sparse); err != nil {
		t.Fatal(err)
	}
	regrown := int64(pl.RetainedTagBytes())
	pool.Put(pl)
	if regrown >= denseRetained/shrinkFactor {
		t.Fatalf("retained %d regrown under sparse traffic; want well under the dense %d",
			regrown, denseRetained)
	}
}

// TestRouteTracedMatchesUntraced is the differential check: tracing must
// observe the planning pipeline, not perturb it — same deliveries, same
// switch settings, bit for bit.
func TestRouteTracedMatchesUntraced(t *testing.T) {
	const n = 64
	a := mcast.MustNew(n, [][]int{2: {0, 5, 9, 33}, 7: {1, 2}, 40: {60, 61, 62, 63}})

	nw, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := nw.Route(a)
	if err != nil {
		t.Fatal(err)
	}
	tr := &obs.RouteTrace{Key: "diff"}
	traced, err := nw.RouteTraced(a, tr)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(plain.Deliveries, traced.Deliveries) {
		t.Fatal("tracing changed deliveries")
	}
	if !reflect.DeepEqual(plain.Final, traced.Final) {
		t.Fatal("tracing changed the final column settings")
	}
	if len(plain.Plans) != len(traced.Plans) {
		t.Fatalf("plan count %d vs %d", len(plain.Plans), len(traced.Plans))
	}
	for i := range plain.Plans {
		p, q := plain.Plans[i], traced.Plans[i]
		if !reflect.DeepEqual(p.Scatter.Stages, q.Scatter.Stages) ||
			!reflect.DeepEqual(p.Quasi.Stages, q.Quasi.Stages) {
			t.Fatalf("tracing changed BSN %d's switch settings", i)
		}
	}

	// The trace itself must carry the paper-level quantities.
	if tr.N != n || tr.LevelsSwept != 6 || tr.BSNs != len(plain.Plans) {
		t.Fatalf("trace shape = %+v", tr)
	}
	if tr.Settings <= 0 || tr.Columns <= 0 || tr.Fanout != 10 || tr.IdleInputs != n-3 {
		t.Fatalf("trace quantities = %+v", tr)
	}
	if tr.TotalNs <= 0 || tr.ScatterNs <= 0 || tr.QuasiNs <= 0 {
		t.Fatalf("trace stage times = %+v", tr)
	}
	if tr.CloneNs <= 0 {
		t.Fatalf("network clone stage untimed: %+v", tr)
	}

	// A nil trace falls back to the untraced path.
	if _, err := nw.RouteTraced(a, nil); err != nil {
		t.Fatal(err)
	}
}
