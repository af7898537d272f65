package core

import (
	"math/rand"
	"reflect"
	"testing"

	"brsmn/internal/mcast"
)

// TestBuildTreeMatchesMcast is the differential check for the word-
// parallel tree construction: the packed 2-bit lanes must equal the
// byte tree of mcast.BuildTagTree for random destination sets across
// sizes that exercise both the whole-word and the in-word-0 paths.
func TestBuildTreeMatchesMcast(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, n := range []int{2, 4, 8, 16, 32, 64, 128, 1024} {
		p, err := NewPlanner(n)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 25; trial++ {
			var ds []int
			for d := 0; d < n; d++ {
				if rng.Intn(3) == 0 {
					ds = append(ds, d)
				}
			}
			if len(ds) == 0 {
				ds = []int{rng.Intn(n)}
			}
			p.treeUsed = 0
			off := p.allocTree()
			p.buildTree(p.treeWords[int(off):int(off)+p.tw], ds)
			ref, err := mcast.BuildTagTree(n, ds)
			if err != nil {
				t.Fatal(err)
			}
			for k := 1; k < n; k++ {
				if got, want := p.laneAt(off, k), ref.Nodes[k]; got != want {
					t.Fatalf("n=%d trial %d: node %d lane %v, want %v", n, trial, k, got, want)
				}
			}
		}
	}
}

// resultsEqual compares two routed results bit for bit: deliveries,
// final column, and every reverse-banyan stage of every BSN.
func resultsEqual(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.N != want.N || len(got.Plans) != len(want.Plans) {
		t.Fatalf("%s: result shapes differ", label)
	}
	for i := range got.Deliveries {
		if got.Deliveries[i].Source != want.Deliveries[i].Source {
			t.Fatalf("%s: output %d source %d, want %d", label, i, got.Deliveries[i].Source, want.Deliveries[i].Source)
		}
	}
	if !reflect.DeepEqual(got.Final, want.Final) {
		t.Fatalf("%s: final column differs", label)
	}
	for i := range got.Plans {
		g, w := got.Plans[i], want.Plans[i]
		if !reflect.DeepEqual(g.Scatter.Stages, w.Scatter.Stages) ||
			!reflect.DeepEqual(g.Quasi.Stages, w.Quasi.Stages) {
			t.Fatalf("%s: BSN %d settings differ", label, i)
		}
	}
}

// TestRoutePatchMatchesFreshRoute drives random join/leave churn through
// a patched planner and checks, after every single step, that the
// patched configuration is byte-identical to a fresh full route of the
// current assignment — patches must be invisible.
func TestRoutePatchMatchesFreshRoute(t *testing.T) {
	for _, n := range []int{8, 64, 256} {
		rng := rand.New(rand.NewSource(int64(200 + n)))
		patched, err := NewPlanner(n)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := NewPlanner(n)
		if err != nil {
			t.Fatal(err)
		}
		// Mutable assignment state: dests[i] as a set.
		member := make([][]bool, n)
		for i := range member {
			member[i] = make([]bool, n)
		}
		owner := make([]int, n)
		for i := range owner {
			owner[i] = -1
		}
		assignment := func() mcast.Assignment {
			dests := make([][]int, n)
			for i := range dests {
				for d := 0; d < n; d++ {
					if member[i][d] {
						dests[i] = append(dests[i], d)
					}
				}
			}
			return mcast.MustNew(n, dests)
		}
		// Seed with a moderately loaded random multicast.
		for d := 0; d < n; d++ {
			if rng.Intn(4) != 0 {
				src := rng.Intn(n / 2) // few sources, real fanout
				member[src][d] = true
				owner[d] = src
			}
		}
		if _, err := patched.Route(assignment()); err != nil {
			t.Fatal(err)
		}

		patches, fallbacks := 0, 0
		for step := 0; step < 200; step++ {
			d := rng.Intn(n)
			var src int
			join := owner[d] < 0
			if join {
				src = rng.Intn(n / 2)
				// Avoid the structural idle-source case sometimes, hit
				// it other times — both paths must work.
				member[src][d] = true
				owner[d] = src
			} else {
				src = owner[d]
				member[src][d] = false
				owner[d] = -1
			}
			res, lvl, err := patched.RoutePatch(src, d, join)
			switch {
			case err == ErrPatchFallback:
				fallbacks++
				res, err = patched.Route(assignment())
				if err != nil {
					t.Fatalf("n=%d step %d: fallback route: %v", n, step, err)
				}
			case err != nil:
				t.Fatalf("n=%d step %d: RoutePatch(%d, %d, %v): %v", n, step, src, d, join, err)
			default:
				patches++
				if lvl <= 1 || lvl > patched.m {
					t.Fatalf("n=%d step %d: patch level %d out of (1,%d]", n, step, lvl, patched.m)
				}
			}
			want, err := fresh.Route(assignment())
			if err != nil {
				t.Fatalf("n=%d step %d: fresh route: %v", n, step, err)
			}
			resultsEqual(t, "patched vs fresh", res, want)
		}
		if patches == 0 {
			t.Fatalf("n=%d: no step exercised the in-place patch path (%d fallbacks)", n, fallbacks)
		}
	}
}

// TestRoutePatchErrors pins the patch error paths: bad arguments, a cold
// planner, conflicting ownership, and patching after ShrinkArenas.
func TestRoutePatchErrors(t *testing.T) {
	const n = 16
	p, err := NewPlanner(n)
	if err != nil {
		t.Fatal(err)
	}
	// Cold planner: fallback, not a crash.
	if _, _, err := p.RoutePatch(0, 1, true); err != ErrPatchFallback {
		t.Fatalf("cold patch: %v, want ErrPatchFallback", err)
	}
	a := mcast.MustNew(n, [][]int{0: {1, 2, 3}, 4: {8}})
	if _, err := p.Route(a); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.RoutePatch(-1, 0, true); err == nil {
		t.Error("negative source accepted")
	}
	if _, _, err := p.RoutePatch(0, n, true); err == nil {
		t.Error("out-of-range destination accepted")
	}
	// Join of an owned output is a user error, not a fallback.
	if _, _, err := p.RoutePatch(4, 2, true); err == nil || err == ErrPatchFallback {
		t.Errorf("join onto owned output: %v, want ownership error", err)
	}
	// Leave of an output the source does not own.
	if _, _, err := p.RoutePatch(0, 8, false); err == nil || err == ErrPatchFallback {
		t.Errorf("leave of foreign output: %v, want ownership error", err)
	}
	// Idle-source join is structural.
	if _, _, err := p.RoutePatch(7, 9, true); err != ErrPatchFallback {
		t.Errorf("idle-source join: %v, want ErrPatchFallback", err)
	}
	// After the fallback the planner routes fully and is patchable again.
	a2 := mcast.MustNew(n, [][]int{0: {1, 2, 3}, 4: {8}, 7: {9}})
	if _, err := p.Route(a2); err != nil {
		t.Fatal(err)
	}
	if _, lvl, err := p.RoutePatch(0, 0, true); err != nil {
		t.Fatalf("patch after fallback route: %v", err)
	} else if lvl <= 1 {
		t.Fatalf("leaf-adjacent join replanned level %d", lvl)
	}
	// ShrinkArenas invalidates the retained route.
	p.ShrinkArenas()
	if _, _, err := p.RoutePatch(0, 5, true); err != ErrPatchFallback {
		t.Errorf("patch after shrink: %v, want ErrPatchFallback", err)
	}
}

// TestRoutePatchPayloads checks that patched deliveries still resolve
// payloads from the retained payload slice.
func TestRoutePatchPayloads(t *testing.T) {
	const n = 16
	p, err := NewPlanner(n)
	if err != nil {
		t.Fatal(err)
	}
	a := mcast.MustNew(n, [][]int{2: {4, 5}})
	payloads := make([]any, n)
	payloads[2] = "hello"
	if _, err := p.RouteWithPayloads(a, payloads); err != nil {
		t.Fatal(err)
	}
	res, _, err := p.RoutePatch(2, 6, true)
	if err != nil {
		t.Fatalf("RoutePatch: %v", err)
	}
	if res.Deliveries[6].Source != 2 || res.Deliveries[6].Payload != "hello" {
		t.Fatalf("patched delivery = %+v, want source 2 payload hello", res.Deliveries[6])
	}
}

// TestRoutePatchLevelsDeep checks the headline property: a join far from
// the group's existing destinations patches near the root (expensive),
// while a join adjacent to an existing destination patches at the leaf
// (near constant time). The level the patch reports is the level the
// recursion re-entered.
func TestRoutePatchLevelsDeep(t *testing.T) {
	const n = 1024
	p, err := NewPlanner(n)
	if err != nil {
		t.Fatal(err)
	}
	a := mcast.MustNew(n, [][]int{0: {0}})
	if _, err := p.Route(a); err != nil {
		t.Fatal(err)
	}
	// Output 1 is the sibling leaf of output 0: only the final 2x2
	// switch changes.
	if _, lvl, err := p.RoutePatch(0, 1, true); err != nil {
		t.Fatal(err)
	} else if lvl != p.m {
		t.Fatalf("sibling join replanned from level %d, want leaf level %d", lvl, p.m)
	}
	// Output n-1 is in the other half of the network: the root lane
	// flips to α, which is a full replan.
	if _, _, err := p.RoutePatch(0, n-1, true); err != ErrPatchFallback {
		t.Fatalf("far join: %v, want ErrPatchFallback (root change)", err)
	}
	if _, err := p.Route(mcast.MustNew(n, [][]int{0: {0, 1, n - 1}})); err != nil {
		t.Fatal(err)
	}
	// Leaving the sibling again is a leaf-level patch.
	if _, lvl, err := p.RoutePatch(0, 1, false); err != nil {
		t.Fatal(err)
	} else if lvl != p.m {
		t.Fatalf("sibling leave replanned from level %d, want leaf level %d", lvl, p.m)
	}
}

// TestPatchedTreeStaysConsistent checks that after an in-place patch the
// packed tree equals a from-scratch build of the new destination set.
func TestPatchedTreeStaysConsistent(t *testing.T) {
	const n = 64
	p, err := NewPlanner(n)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Route(mcast.MustNew(n, [][]int{3: {8, 9, 40}})); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.RoutePatch(3, 10, true); err != nil {
		t.Fatal(err)
	}
	ref, err := mcast.BuildTagTree(n, []int{8, 9, 10, 40})
	if err != nil {
		t.Fatal(err)
	}
	off := p.treeOff[3]
	for k := 1; k < n; k++ {
		if got, want := p.laneAt(off, k), ref.Nodes[k]; got != want {
			t.Fatalf("node %d lane %v, want %v", k, got, want)
		}
	}
}
