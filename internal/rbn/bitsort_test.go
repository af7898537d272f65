package rbn

import (
	"math/rand"
	"testing"

	"brsmn/internal/seq"
)

// checkBitSort verifies that BitSortPlan routes the given γ marks to the
// circular compact sequence C_{s,l} and that the plan is broadcast-free.
func checkBitSort(t *testing.T, n int, gamma []bool, s int) {
	t.Helper()
	p, out, err := BitSortRoute(n, gamma, s)
	if err != nil {
		t.Fatalf("BitSortRoute(n=%d, s=%d): %v", n, s, err)
	}
	counts := p.CountSettings()
	if counts[2] != 0 || counts[3] != 0 {
		t.Fatalf("bit-sort plan for n=%d contains broadcast settings: %v", n, counts)
	}
	l := 0
	for _, g := range gamma {
		if g {
			l++
		}
	}
	if !seq.IsCompact(out, s, l, false, true) {
		t.Fatalf("n=%d s=%d gamma=%v: output %v is not C_{%d,%d}", n, s, gamma, out, s, l)
	}
}

// TestBitSortExhaustiveSmall checks Theorem 1 exhaustively: every 0/1
// input pattern and every starting position for n = 2, 4, 8.
func TestBitSortExhaustiveSmall(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		for mask := 0; mask < 1<<n; mask++ {
			gamma := make([]bool, n)
			for i := range gamma {
				gamma[i] = mask>>i&1 == 1
			}
			for s := 0; s < n; s++ {
				checkBitSort(t, n, gamma, s)
			}
		}
	}
}

// TestBitSortRandomLarge checks Theorem 1 on random patterns for larger
// power-of-two sizes.
func TestBitSortRandomLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{16, 32, 64, 128, 256, 1024} {
		for trial := 0; trial < 20; trial++ {
			gamma := make([]bool, n)
			for i := range gamma {
				gamma[i] = rng.Intn(2) == 1
			}
			checkBitSort(t, n, gamma, rng.Intn(n))
		}
	}
}

// TestBitSortFullSort checks the bit-sorting special case of Section 4:
// with l = n/2 ones and s = n/2, the output is 0^(n/2) 1^(n/2).
func TestBitSortFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{2, 4, 8, 16, 64, 256} {
		gamma := make([]bool, n)
		for i := range gamma {
			gamma[i] = i < n/2
		}
		rng.Shuffle(n, func(i, j int) { gamma[i], gamma[j] = gamma[j], gamma[i] })
		_, out, err := BitSortRoute(n, gamma, n/2)
		if err != nil {
			t.Fatal(err)
		}
		for i, g := range out {
			if want := i >= n/2; g != want {
				t.Fatalf("n=%d: output %d is %v, want %v (full ascending sort)", n, i, g, want)
			}
		}
	}
}

// TestBitSortOneToOne verifies the routing is a permutation (no value is
// duplicated or lost) by routing distinct payloads.
func TestBitSortOneToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{8, 64, 512} {
		gamma := make([]bool, n)
		for i := range gamma {
			gamma[i] = rng.Intn(2) == 1
		}
		p, err := BitSortPlan(n, gamma, rng.Intn(n))
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i
		}
		out, err := Apply(p, ids, nil)
		if err != nil {
			t.Fatal(err)
		}
		seen := make([]bool, n)
		for _, id := range out {
			if seen[id] {
				t.Fatalf("n=%d: payload %d appears twice at the outputs", n, id)
			}
			seen[id] = true
		}
	}
}

// TestBitSortErrors checks argument validation.
func TestBitSortErrors(t *testing.T) {
	if _, err := BitSortPlan(3, make([]bool, 3), 0); err == nil {
		t.Error("BitSortPlan accepted non-power-of-two size")
	}
	if _, err := BitSortPlan(4, make([]bool, 3), 0); err == nil {
		t.Error("BitSortPlan accepted mismatched input length")
	}
	if _, err := BitSortPlan(4, make([]bool, 4), 4); err == nil {
		t.Error("BitSortPlan accepted out-of-range starting position")
	}
	if _, err := BitSortPlan(4, make([]bool, 4), -1); err == nil {
		t.Error("BitSortPlan accepted negative starting position")
	}
}
