package brsmn

import (
	"math/rand"
	"testing"
)

// TestQuickstart exercises the documented entry points end to end.
func TestQuickstart(t *testing.T) {
	a, err := NewAssignment(8, [][]int{{0, 1}, nil, {3, 4, 7}, {2}, nil, nil, nil, {5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	nw, err := New(8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := nw.Route(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 0, 3, 2, 2, 7, 7, 2}
	for out, src := range want {
		if res.Deliveries[out].Source != src {
			t.Errorf("output %d: source %d, want %d", out, res.Deliveries[out].Source, src)
		}
	}
	if err := Verify(a, res); err != nil {
		t.Errorf("Verify: %v", err)
	}
}

// TestRouteAgainstOracle fuzzes the public surface against the crossbar
// oracle across sizes and the feedback variant.
func TestRouteAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	for _, n := range []int{2, 8, 64} {
		plain, err := New(n)
		if err != nil {
			t.Fatal(err)
		}
		fb, err := NewFeedback(n)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 10; trial++ {
			a := RandomAssignment(rng, n, rng.Float64(), rng.Float64())
			want, err := Oracle(a)
			if err != nil {
				t.Fatal(err)
			}
			r1, err := plain.Route(a)
			if err != nil {
				t.Fatal(err)
			}
			r2, err := fb.Route(a)
			if err != nil {
				t.Fatal(err)
			}
			for out := range want {
				if r1.Deliveries[out].Source != want[out] ||
					r2.Deliveries[out].Source != want[out] {
					t.Fatalf("n=%d output %d mismatch vs oracle", n, out)
				}
			}
		}
	}
}

// TestPermutationHelpers checks the unicast surface.
func TestPermutationHelpers(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	perm := rng.Perm(32)
	out, err := RoutePermutation(perm)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range perm {
		if out[d] != i {
			t.Fatalf("output %d got %d, want %d", d, out[d], i)
		}
	}
	a, err := PermutationAssignment([]int{1, -1, 3, -1})
	if err != nil {
		t.Fatal(err)
	}
	if a.Fanout() != 2 {
		t.Error("PermutationAssignment fanout wrong")
	}
	if _, err := RoutePermutation([]int{0, 0}); err == nil {
		t.Error("RoutePermutation accepted duplicate destination")
	}
}

// TestBroadcastAndWorkloads checks the workload constructors.
func TestBroadcastAndWorkloads(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	b, err := BroadcastAssignment(16, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Route(b)
	if err != nil {
		t.Fatal(err)
	}
	for out, d := range res.Deliveries {
		if d.Source != 3 {
			t.Fatalf("broadcast output %d from %d", out, d.Source)
		}
	}
	ms, err := MaxSplitAssignment(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Route(ms); err != nil {
		t.Fatal(err)
	}
	hs := HotSpotAssignment(rng, 16, 8, 0.5)
	if _, err := Route(hs); err != nil {
		t.Fatal(err)
	}
	rp := RandomPermutation(rng, 16)
	if !rp.IsPermutation() {
		t.Error("RandomPermutation not a permutation")
	}
	if Fig2Assignment().String() != "{{0,1}, ∅, {3,4,7}, {2}, ∅, ∅, ∅, {5,6}}" {
		t.Error("Fig2Assignment wrong")
	}
}

// TestTagSequenceSurface checks the wire-format helpers round-trip.
func TestTagSequenceSurface(t *testing.T) {
	s, err := TagSequence(8, []int{3, 4, 7})
	if err != nil {
		t.Fatal(err)
	}
	if s != "α1αε011" {
		t.Errorf("TagSequence = %q", s)
	}
	dests, err := ParseTagSequence(8, "a1ae011")
	if err != nil {
		t.Fatal(err)
	}
	if len(dests) != 3 || dests[0] != 3 || dests[1] != 4 || dests[2] != 7 {
		t.Errorf("ParseTagSequence = %v", dests)
	}
	if _, err := TagSequence(8, []int{9}); err == nil {
		t.Error("TagSequence accepted out-of-range destination")
	}
	if _, err := ParseTagSequence(8, "zzz"); err == nil {
		t.Error("ParseTagSequence accepted garbage")
	}
}

// TestCostSurface checks the Table 2 accessors.
func TestCostSurface(t *testing.T) {
	rows := CostTable2(256)
	if len(rows) != 4 {
		t.Fatalf("CostTable2 returned %d rows", len(rows))
	}
	if NetworkCost(256).Switches <= FeedbackCost(256).Switches {
		t.Error("unrolled network not costlier than feedback")
	}
	if RoutingDelay(256) <= 0 || FeedbackRoutingDelay(256) < RoutingDelay(256) {
		t.Error("routing delays inconsistent")
	}
	fb, _ := NewFeedback(256)
	if fb.HardwareSwitches() != FeedbackCost(256).Switches {
		t.Error("feedback hardware accessors disagree")
	}
}

// TestConstructionErrors checks the public validation surface.
func TestConstructionErrors(t *testing.T) {
	if _, err := New(5); err == nil {
		t.Error("New(5) succeeded")
	}
	if _, err := NewFeedback(0); err == nil {
		t.Error("NewFeedback(0) succeeded")
	}
	if _, err := NewAssignment(4, [][]int{{0}, {0}}); err == nil {
		t.Error("NewAssignment accepted overlap")
	}
	bad := Assignment{N: 4, Dests: [][]int{{0}, {0}, nil, nil}}
	if _, err := Route(bad); err == nil {
		t.Error("Route accepted invalid assignment")
	}
	nw, _ := New(4)
	if nw.N() != 4 {
		t.Error("N wrong")
	}
	fb, _ := NewFeedback(4)
	if fb.N() != 4 {
		t.Error("feedback N wrong")
	}
}

// TestPayloadsEndToEnd checks payload fanout on both variants.
func TestPayloadsEndToEnd(t *testing.T) {
	n := 8
	a := Fig2Assignment()
	payloads := make([]any, n)
	for i := range payloads {
		payloads[i] = i * 100
	}
	nw, _ := New(n)
	res, err := nw.RouteWithPayloads(a, payloads)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deliveries[4].Payload != 200 {
		t.Errorf("output 4 payload = %v, want 200", res.Deliveries[4].Payload)
	}
	fb, _ := NewFeedback(n)
	fres, err := fb.RouteWithPayloads(a, payloads)
	if err != nil {
		t.Fatal(err)
	}
	if fres.Deliveries[6].Payload != 700 {
		t.Errorf("feedback output 6 payload = %v, want 700", fres.Deliveries[6].Payload)
	}
}
