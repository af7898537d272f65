package permnet

import (
	"math/rand"
	"testing"
)

// checkPerm routes and verifies a (partial) permutation.
func checkPerm(t *testing.T, perm []int) {
	t.Helper()
	res, err := Route(perm)
	if err != nil {
		t.Fatalf("Route(%v): %v", perm, err)
	}
	for i, d := range perm {
		if d < 0 {
			continue
		}
		if res.OutSource[d] != i {
			t.Fatalf("perm %v: output %d got %d, want %d", perm, d, res.OutSource[d], i)
		}
	}
}

// TestExhaustiveN4 routes every full permutation of 4 elements.
func TestExhaustiveN4(t *testing.T) {
	perm := []int{0, 1, 2, 3}
	var rec func(k int)
	rec = func(k int) {
		if k == 4 {
			checkPerm(t, perm)
			return
		}
		for i := k; i < 4; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
}

// TestExhaustiveN8Sampled routes many random permutations of 8 and all
// cyclic shifts.
func TestExhaustiveN8Sampled(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	n := 8
	for shift := 0; shift < n; shift++ {
		perm := make([]int, n)
		for i := range perm {
			perm[i] = (i + shift) % n
		}
		checkPerm(t, perm)
	}
	for trial := 0; trial < 200; trial++ {
		checkPerm(t, rng.Perm(n))
	}
}

// TestPartialAndLarge routes partial permutations at larger sizes.
func TestPartialAndLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for _, n := range []int{2, 16, 128, 1024} {
		for trial := 0; trial < 8; trial++ {
			perm := rng.Perm(n)
			for i := range perm {
				if rng.Intn(3) == 0 {
					perm[i] = -1
				}
			}
			checkPerm(t, perm)
		}
	}
}

// TestLevelCount checks one composed plan per address bit.
func TestLevelCount(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	res, err := Route(rng.Perm(64))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Levels) != 6 {
		t.Errorf("levels = %d, want 6", len(res.Levels))
	}
}

// TestValidation checks error paths.
func TestValidation(t *testing.T) {
	if _, err := Route([]int{0, 1, 2}); err == nil {
		t.Error("accepted non-power-of-two size")
	}
	if _, err := Route([]int{1, 1}); err == nil {
		t.Error("accepted duplicate destination")
	}
	if _, err := Route([]int{0, 9}); err == nil {
		t.Error("accepted out-of-range destination")
	}
}

// TestSwitchCountHalvesBRSMN checks the ablation arithmetic: the
// permutation network's switch count is exactly half the BRSMN BSN
// switch total (quasisort RBNs only, no scatter RBNs), plus nothing else.
func TestSwitchCountHalvesBRSMN(t *testing.T) {
	// Σ over levels of (n/size)·(size/2)·log2(size) for n = 16:
	// 8·4 + 2·8·... compute by hand: level sizes 16,8,4,2:
	// 1·8·4 + 2·4·3 + 4·2·2 + 8·1·1 = 32 + 24 + 16 + 8 = 80.
	if got := Switches(16); got != 80 {
		t.Errorf("Switches(16) = %d, want 80", got)
	}
}
