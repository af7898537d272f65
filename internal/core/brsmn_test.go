package core

import (
	"fmt"
	"math/rand"
	"testing"

	"brsmn/internal/mcast"
	"brsmn/internal/workload"
)

// route is a test helper that routes and fails on error.
func route(t *testing.T, a mcast.Assignment) *Result {
	t.Helper()
	res, err := Route(a)
	if err != nil {
		t.Fatalf("Route(%v): %v", a, err)
	}
	return res
}

// TestFig2PaperExample reproduces the routing example of Fig. 2: the
// multicast assignment {{0,1}, ∅, {3,4,7}, {2}, ∅, ∅, ∅, {5,6}} on an
// 8 x 8 BRSMN.
func TestFig2PaperExample(t *testing.T) {
	a := workload.PaperFig2()
	res := route(t, a)
	want := map[int]int{0: 0, 1: 0, 2: 3, 3: 2, 4: 2, 5: 7, 6: 7, 7: 2}
	for out := 0; out < 8; out++ {
		src, ok := want[out]
		if !ok {
			src = -1
		}
		if res.Deliveries[out].Source != src {
			t.Errorf("output %d received source %d, want %d", out, res.Deliveries[out].Source, src)
		}
	}
	// The 8x8 BRSMN has one 8x8 BSN, two 4x4 BSNs, and four final 2x2
	// switches (Fig. 2).
	if len(res.Plans) != 3 {
		t.Errorf("expected 3 BSN instances, got %d", len(res.Plans))
	}
	if len(res.Final) != 4 {
		t.Errorf("expected 4 final switches, got %d", len(res.Final))
	}
}

// TestExhaustiveUnicastN4 routes every partial permutation of a 4x4
// network (5^4 destination vectors with repetition filtered).
func TestExhaustiveUnicastN4(t *testing.T) {
	n := 4
	var vec [4]int
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			used := map[int]bool{}
			ok := true
			for _, d := range vec {
				if d >= 0 {
					if used[d] {
						ok = false
						break
					}
					used[d] = true
				}
			}
			if !ok {
				return
			}
			a, err := mcast.Permutation(vec[:])
			if err != nil {
				t.Fatal(err)
			}
			route(t, a)
			return
		}
		for d := -1; d < n; d++ {
			vec[i] = d
			rec(i + 1)
		}
	}
	rec(0)
}

// TestExhaustiveMulticastN4 routes every multicast assignment of a 4x4
// network: every function from outputs to {idle, input 0..3} (5^4 = 625
// assignments, all valid by construction).
func TestExhaustiveMulticastN4(t *testing.T) {
	n := 4
	var owner [4]int // owner[out] in [-1, n)
	var rec func(o int)
	rec = func(o int) {
		if o == n {
			dests := make([][]int, n)
			for out, in := range owner {
				if in >= 0 {
					dests[in] = append(dests[in], out)
				}
			}
			a, err := mcast.New(n, dests)
			if err != nil {
				t.Fatal(err)
			}
			route(t, a)
			return
		}
		for in := -1; in < n; in++ {
			owner[o] = in
			rec(o + 1)
		}
	}
	rec(0)
}

// TestRandomMulticast routes random multicast assignments over a range of
// sizes and loads; Route verifies deliveries internally, so reaching the
// end means exact delivery.
func TestRandomMulticast(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, n := range []int{2, 4, 8, 16, 32, 64, 128, 256} {
		for _, load := range []float64{0.1, 0.5, 0.9, 1.0} {
			for trial := 0; trial < 10; trial++ {
				a := workload.Random(rng, n, load, rng.Float64())
				route(t, a)
			}
		}
	}
}

// TestBroadcast routes the full broadcast from every source of a 32x32
// network.
func TestBroadcast(t *testing.T) {
	for src := 0; src < 32; src++ {
		a := workload.Broadcast(32, src)
		res := route(t, a)
		for out, d := range res.Deliveries {
			if d.Source != src {
				t.Fatalf("broadcast from %d: output %d got source %d", src, out, d.Source)
			}
		}
	}
}

// TestMaxSplit routes the adversarial maximum-split combs.
func TestMaxSplit(t *testing.T) {
	for _, n := range []int{8, 64, 256} {
		for g := 1; g <= n; g *= 2 {
			a, err := workload.MaxSplit(n, g)
			if err != nil {
				t.Fatal(err)
			}
			route(t, a)
		}
	}
}

// TestFullPermutations routes full random permutations (the unicast
// special case of Section 2).
func TestFullPermutations(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{2, 8, 64, 512} {
		for trial := 0; trial < 5; trial++ {
			a := workload.Permutation(rng, n)
			route(t, a)
		}
	}
}

// TestPayloadDelivery checks that payloads reach every destination of
// their multicast.
func TestPayloadDelivery(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	n := 64
	nw, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	a := workload.Random(rng, n, 0.8, 0.5)
	payloads := make([]any, n)
	for i := range payloads {
		payloads[i] = fmt.Sprintf("msg-%d", i)
	}
	res, err := nw.RouteWithPayloads(a, payloads)
	if err != nil {
		t.Fatal(err)
	}
	for out, d := range res.Deliveries {
		if d.Source < 0 {
			continue
		}
		if d.Payload != payloads[d.Source] {
			t.Errorf("output %d got payload %v, want %v", out, d.Payload, payloads[d.Source])
		}
	}
}

// TestNewErrors checks constructor validation.
func TestNewErrors(t *testing.T) {
	for _, n := range []int{0, 1, 3, 6, 100} {
		if _, err := New(n); err == nil {
			t.Errorf("New(%d) succeeded; want error", n)
		}
	}
	nw, _ := New(8)
	a := workload.Random(rand.New(rand.NewSource(1)), 16, 0.5, 0.5)
	if _, err := nw.Route(a); err == nil {
		t.Error("Route accepted an assignment of the wrong size")
	}
}

// TestStructureInventory checks the Fig. 1 construction arithmetic: an
// n x n BRSMN instantiates 2^(k-1) BSNs of size n/2^(k-1) at level k and
// n/2 final switches, when every level is exercised.
func TestStructureInventory(t *testing.T) {
	n := 64
	// Broadcast exercises every BSN instance.
	res := route(t, workload.Broadcast(n, 3))
	counts := map[int]int{} // size -> #BSNs
	for _, lp := range res.Plans {
		counts[lp.Size]++
	}
	wantLevels := 0
	for sz, want := n, 1; sz > 2; sz, want = sz/2, want*2 {
		if counts[sz] != want {
			t.Errorf("BSNs of size %d: got %d, want %d", sz, counts[sz], want)
		}
		wantLevels++
	}
	if len(counts) != wantLevels {
		t.Errorf("BSN size classes: got %d, want %d", len(counts), wantLevels)
	}
	if len(res.Final) != n/2 {
		t.Errorf("final switches: got %d, want %d", len(res.Final), n/2)
	}
}
