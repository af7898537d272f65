package brsmn_test

import (
	"math/rand"
	"testing"

	"brsmn"
	"brsmn/internal/bsn"
	"brsmn/internal/copynet"
	"brsmn/internal/core"
	"brsmn/internal/fabric"
	"brsmn/internal/feedback"
	"brsmn/internal/gcn"
	"brsmn/internal/plancodec"
	"brsmn/internal/workload"
	"brsmn/internal/xbar"
)

// TestDifferentialAllNetworks is the repository-wide differential fuzz
// test: for hundreds of random assignments across sizes, five
// independent implementations must agree output for output —
//
//  1. the crossbar oracle (definitionally correct),
//  2. the unrolled BRSMN (recursive router),
//  3. the flattened-fabric replay of the BRSMN's own plans, round-
//     tripped through the binary plan codec,
//  4. the feedback BRSMN,
//  5. the copy-network + Benes baseline,
//  6. the Nassimi–Sahni-style generalized connection network.
func TestDifferentialAllNetworks(t *testing.T) {
	rng := rand.New(rand.NewSource(190))
	trials := 40
	if testing.Short() {
		trials = 8
	}
	for _, n := range []int{4, 8, 16, 64} {
		un, err := core.New(n)
		if err != nil {
			t.Fatal(err)
		}
		fb, err := feedback.New(n)
		if err != nil {
			t.Fatal(err)
		}
		cn, err := copynet.New(n)
		if err != nil {
			t.Fatal(err)
		}
		xb, err := xbar.New(n)
		if err != nil {
			t.Fatal(err)
		}
		gc, err := gcn.New(n)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < trials; trial++ {
			a := workload.Random(rng, n, rng.Float64(), rng.Float64())
			want, err := xb.Route(a)
			if err != nil {
				t.Fatal(err)
			}

			res, err := un.Route(a)
			if err != nil {
				t.Fatalf("n=%d %v: unrolled: %v", n, a, err)
			}
			cols, err := fabric.Flatten(res)
			if err != nil {
				t.Fatal(err)
			}
			blob, err := plancodec.Encode(n, cols)
			if err != nil {
				t.Fatal(err)
			}
			_, cols2, err := plancodec.Decode(blob)
			if err != nil {
				t.Fatal(err)
			}
			cells, err := bsn.CellsForAssignment(a)
			if err != nil {
				t.Fatal(err)
			}
			replay, err := fabric.Run(cols2, cells)
			if err != nil {
				t.Fatal(err)
			}
			fres, err := fb.Route(a)
			if err != nil {
				t.Fatalf("n=%d %v: feedback: %v", n, a, err)
			}
			cres, err := cn.Route(a)
			if err != nil {
				t.Fatalf("n=%d %v: copynet: %v", n, a, err)
			}
			gres, err := gc.Route(a)
			if err != nil {
				t.Fatalf("n=%d %v: gcn: %v", n, a, err)
			}

			for out := 0; out < n; out++ {
				rp := -1
				if !replay[out].IsIdle() {
					rp = replay[out].Source
				}
				if res.Deliveries[out].Source != want[out] ||
					rp != want[out] ||
					fres.Deliveries[out].Source != want[out] ||
					cres.OutSource[out] != want[out] ||
					gres.OutSource[out] != want[out] {
					t.Fatalf("n=%d %v: output %d diverged: oracle %d, unrolled %d, replay %d, feedback %d, copynet %d",
						n, a, out, want[out], res.Deliveries[out].Source, rp,
						fres.Deliveries[out].Source, cres.OutSource[out])
				}
			}
		}
	}
}

// TestDifferentialPermutations repeats the differential check on unicast
// traffic, adding the permutation-network specialization and the public
// helper to the set.
func TestDifferentialPermutations(t *testing.T) {
	rng := rand.New(rand.NewSource(191))
	for _, n := range []int{8, 32, 128} {
		for trial := 0; trial < 20; trial++ {
			perm := rng.Perm(n)
			for i := range perm {
				if rng.Intn(4) == 0 {
					perm[i] = -1
				}
			}
			a, err := brsmn.PermutationAssignment(perm)
			if err != nil {
				t.Fatal(err)
			}
			res, err := brsmn.Route(a)
			if err != nil {
				t.Fatal(err)
			}
			out, err := brsmn.RoutePermutation(perm)
			if err != nil {
				t.Fatal(err)
			}
			for i, d := range perm {
				if d < 0 {
					continue
				}
				if res.Deliveries[d].Source != i || out[d] != i {
					t.Fatalf("n=%d: destination %d: brsmn %d, permnet %d, want %d",
						n, d, res.Deliveries[d].Source, out[d], i)
				}
			}
		}
	}
}
