package controller

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"brsmn/internal/mcast"
	"brsmn/internal/workload"
	"brsmn/internal/xbar"
)

// TestRouteAllOrderedAndCorrect checks results arrive in submission
// order and match the oracle, across worker counts.
func TestRouteAllOrderedAndCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(240))
	n := 32
	as := make([]mcast.Assignment, 24)
	for i := range as {
		as[i] = workload.Random(rng, n, rng.Float64(), rng.Float64())
	}
	xb, err := xbar.New(n)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		results, err := RouteAll(n, as, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != len(as) {
			t.Fatalf("workers=%d: %d results", workers, len(results))
		}
		for i, r := range results {
			if r.Index != i {
				t.Fatalf("workers=%d: slot %d holds index %d", workers, i, r.Index)
			}
			if r.Err != nil {
				t.Fatalf("workers=%d: assignment %d: %v", workers, i, r.Err)
			}
			want, err := xb.Route(as[i])
			if err != nil {
				t.Fatal(err)
			}
			for out := range want {
				if r.Res.Deliveries[out].Source != want[out] {
					t.Fatalf("workers=%d assignment %d output %d mismatch", workers, i, out)
				}
			}
		}
	}
}

// TestStreamErrorsInBand checks a bad assignment yields an error in its
// slot without stopping the stream.
func TestStreamErrorsInBand(t *testing.T) {
	n := 8
	good := workload.Broadcast(n, 1)
	bad := mcast.Assignment{N: n, Dests: [][]int{{0}, {0}, nil, nil, nil, nil, nil, nil}}
	results, err := RouteAll(n, []mcast.Assignment{good, bad, good}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil || results[2].Err != nil {
		t.Error("good assignments errored")
	}
	if results[1].Err == nil {
		t.Error("bad assignment did not error in its slot")
	}
}

// TestStreamCancel checks context cancellation shuts the stream down.
func TestStreamCancel(t *testing.T) {
	n := 16
	ctx, cancel := context.WithCancel(context.Background())
	in := make(chan mcast.Assignment)
	out, err := RouteStream(ctx, n, in, 2)
	if err != nil {
		t.Fatal(err)
	}
	in <- workload.Broadcast(n, 0)
	<-out
	cancel()
	// The output channel must close soon after cancellation even though
	// `in` stays open.
	select {
	case _, ok := <-out:
		if ok {
			// A buffered result may still drain; the next read must
			// close.
			if _, ok := <-out; ok {
				t.Error("stream still open after cancel")
			}
		}
	case <-time.After(2 * time.Second):
		t.Error("stream did not close after cancel")
	}
}

// TestRouteStreamValidation covers the guards.
func TestRouteStreamValidation(t *testing.T) {
	in := make(chan mcast.Assignment)
	if _, err := RouteStream(context.Background(), 8, in, 0); err == nil {
		t.Error("accepted zero workers")
	}
	if _, err := RouteStream(context.Background(), 7, in, 1); err == nil {
		t.Error("accepted bad size")
	}
}
