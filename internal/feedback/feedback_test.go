package feedback

import (
	"math/rand"
	"testing"

	"brsmn/internal/core"
	"brsmn/internal/mcast"
	"brsmn/internal/shuffle"
	"brsmn/internal/workload"
)

// TestFeedbackEquivalence checks the feedback network delivers exactly
// what the unrolled BRSMN delivers on random traffic.
func TestFeedbackEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for _, n := range []int{2, 4, 8, 32, 128} {
		fb, err := New(n)
		if err != nil {
			t.Fatal(err)
		}
		un, err := core.New(n)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 15; trial++ {
			a := workload.Random(rng, n, rng.Float64(), rng.Float64())
			r1, err := fb.Route(a)
			if err != nil {
				t.Fatalf("n=%d %v: feedback: %v", n, a, err)
			}
			r2, err := un.Route(a)
			if err != nil {
				t.Fatalf("n=%d %v: unrolled: %v", n, a, err)
			}
			for out := range r1.Deliveries {
				if r1.Deliveries[out].Source != r2.Deliveries[out].Source {
					t.Fatalf("n=%d %v: output %d: feedback %d vs unrolled %d",
						n, a, out, r1.Deliveries[out].Source, r2.Deliveries[out].Source)
				}
			}
		}
	}
}

// TestFeedbackPassCount checks the 2 log2(n) - 1 pass count of the
// feedback schedule.
func TestFeedbackPassCount(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, n := range []int{2, 4, 16, 256} {
		fb, _ := New(n)
		a := workload.Random(rng, n, 0.8, 0.5)
		res, err := fb.Route(a)
		if err != nil {
			t.Fatal(err)
		}
		want := 2*shuffle.Log2(n) - 1
		if res.NumPasses() != want {
			t.Errorf("n=%d: %d passes, want %d", n, res.NumPasses(), want)
		}
		for k, p := range res.Passes {
			if p.N != n {
				t.Errorf("n=%d: pass %d reconfigures a %d x %d network", n, k, p.N, p.N)
			}
		}
	}
}

// TestFeedbackFig2 routes the paper's running example through the
// feedback implementation.
func TestFeedbackFig2(t *testing.T) {
	res, err := Route(workload.PaperFig2())
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 0, 3, 2, 2, 7, 7, 2}
	for out, src := range want {
		if res.Deliveries[out].Source != src {
			t.Errorf("output %d got %d, want %d", out, res.Deliveries[out].Source, src)
		}
	}
}

// TestFeedbackBroadcastAndCombs exercises the extreme fanouts.
func TestFeedbackBroadcastAndCombs(t *testing.T) {
	for _, n := range []int{8, 64} {
		for src := 0; src < n; src += n / 4 {
			if _, err := Route(workload.Broadcast(n, src)); err != nil {
				t.Fatalf("broadcast(%d, %d): %v", n, src, err)
			}
		}
		for g := 1; g <= n; g *= 4 {
			a, err := workload.MaxSplit(n, g)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Route(a); err != nil {
				t.Fatalf("maxsplit(%d, %d): %v", n, g, err)
			}
		}
	}
}

// TestFeedbackPayloads checks payload delivery through the feedback path.
func TestFeedbackPayloads(t *testing.T) {
	n := 16
	fb, _ := New(n)
	a := workload.Broadcast(n, 7)
	payloads := make([]any, n)
	payloads[7] = "hello"
	res, err := fb.RouteWithPayloads(a, payloads)
	if err != nil {
		t.Fatal(err)
	}
	for out, d := range res.Deliveries {
		if d.Payload != "hello" {
			t.Errorf("output %d payload = %v", out, d.Payload)
		}
	}
}

// TestHardwareSaving checks the O(n log n) hardware claim against the
// unrolled network's switch count: one RBN vs 2 log n - 1 RBN-equivalents.
func TestHardwareSaving(t *testing.T) {
	n := 1024
	fb, _ := New(n)
	if got, want := fb.HardwareSwitches(), n/2*10; got != want {
		t.Errorf("HardwareSwitches = %d, want %d", got, want)
	}
}

// TestFeedbackErrors checks validation.
func TestFeedbackErrors(t *testing.T) {
	if _, err := New(3); err == nil {
		t.Error("New(3) succeeded")
	}
	fb, _ := New(8)
	a := workload.Broadcast(4, 0)
	if _, err := fb.Route(a); err == nil {
		t.Error("Route accepted wrong-size assignment")
	}
	if _, err := fb.RouteWithPayloads(workload.Broadcast(8, 0), make([]any, 3)); err == nil {
		t.Error("RouteWithPayloads accepted wrong payload count")
	}
	bad := mcast.Assignment{N: 8, Dests: make([][]int, 7)}
	if _, err := fb.Route(bad); err == nil {
		t.Error("Route accepted malformed assignment")
	}
}

// TestFeedbackParallelEngine routes random 32x32 assignments end to
// end. The feedback network runs every setting sweep on the caller's
// goroutine, so one network covers every path.
func TestFeedbackParallelEngine(t *testing.T) {
	fb, err := New(32)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 5; trial++ {
		if _, err := fb.Route(workload.Random(rng, 32, 0.8, 0.5)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFeedbackN2 covers the degenerate single-switch network (no BSN
// levels, delivery pass only).
func TestFeedbackN2(t *testing.T) {
	fb, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, dests := range [][][]int{
		{{0, 1}, nil},
		{{1}, {0}},
		{nil, {0}},
		{nil, nil},
	} {
		a, err := mcast.New(2, dests)
		if err != nil {
			t.Fatal(err)
		}
		res, err := fb.Route(a)
		if err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		if res.NumPasses() != 1 {
			t.Errorf("%v: %d passes, want 1", a, res.NumPasses())
		}
	}
}
