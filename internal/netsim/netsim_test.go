package netsim

import (
	"math/rand"
	"testing"

	"brsmn/internal/cost"
	"brsmn/internal/mcast"
	"brsmn/internal/workload"
	"brsmn/internal/xbar"
)

// TestPipelineDeliveriesMatchOracle checks every wave of a pipelined
// batch delivers exactly its assignment.
func TestPipelineDeliveriesMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(130))
	for _, n := range []int{8, 32, 64} {
		as := make([]mcast.Assignment, 6)
		for i := range as {
			as[i] = workload.Random(rng, n, rng.Float64(), rng.Float64())
		}
		rep, err := Pipeline(as, 1)
		if err != nil {
			t.Fatal(err)
		}
		xb, err := xbar.New(n)
		if err != nil {
			t.Fatal(err)
		}
		for w, a := range as {
			want, err := xb.Route(a)
			if err != nil {
				t.Fatal(err)
			}
			for out := range want {
				if rep.Deliveries[w][out] != want[out] {
					t.Fatalf("n=%d wave %d output %d: %d, want %d", n, w, out, rep.Deliveries[w][out], want[out])
				}
			}
		}
	}
}

// TestPipelineTiming checks the makespan arithmetic: with gap g and W
// waves of depth D, the last wave completes at (W-1)g + D, and the
// speedup over sequential operation approaches D/g.
func TestPipelineTiming(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	n := 32
	for _, gap := range []int{1, 2, 5} {
		W := 8
		as := make([]mcast.Assignment, W)
		for i := range as {
			as[i] = workload.Random(rng, n, 0.7, 0.5)
		}
		rep, err := Pipeline(as, gap)
		if err != nil {
			t.Fatal(err)
		}
		D := cost.BRSMNDepth(n)
		if rep.Depth != D {
			t.Errorf("gap=%d: depth %d, want %d", gap, rep.Depth, D)
		}
		if want := (W-1)*gap + D; rep.Makespan != want {
			t.Errorf("gap=%d: makespan %d, want %d", gap, rep.Makespan, want)
		}
		if rep.SequentialMakespan != W*D {
			t.Errorf("gap=%d: sequential %d, want %d", gap, rep.SequentialMakespan, W*D)
		}
		if rep.Speedup() <= 1 {
			t.Errorf("gap=%d: speedup %.2f not > 1", gap, rep.Speedup())
		}
	}
}

// TestPipelineFillParallelism checks the pipeline actually overlaps: at
// gap 1 with more waves than depth, some cycle has depth columns busy.
func TestPipelineFillParallelism(t *testing.T) {
	rng := rand.New(rand.NewSource(132))
	n := 8
	D := cost.BRSMNDepth(n)
	as := make([]mcast.Assignment, 2*D)
	for i := range as {
		as[i] = workload.Random(rng, n, 0.8, 0.5)
	}
	rep, err := Pipeline(as, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxColumnsBusy != D {
		t.Errorf("peak busy columns %d, want %d (full pipeline)", rep.MaxColumnsBusy, D)
	}
}

// TestPipelineValidation checks error paths.
func TestPipelineValidation(t *testing.T) {
	if _, err := Pipeline(nil, 1); err == nil {
		t.Error("accepted empty batch")
	}
	a := workload.Broadcast(8, 0)
	if _, err := Pipeline([]mcast.Assignment{a}, 0); err == nil {
		t.Error("accepted gap 0")
	}
	b := workload.Broadcast(16, 0)
	if _, err := Pipeline([]mcast.Assignment{a, b}, 1); err == nil {
		t.Error("accepted mixed sizes")
	}
}
