package rbn

import (
	"math/rand"
	"testing"

	"brsmn/internal/seq"
	"brsmn/internal/tag"
)

// chiClass collapses 0/1 to a single χ symbol so compact-sequence
// recognition can run over {χ, α, ε} (Section 5.1).
func chiClass(v tag.Value) tag.Value {
	if v.IsChi() {
		return tag.V0 // canonical χ
	}
	return v
}

// checkScatter verifies Theorem 3 for one input vector and starting
// position: the dominating type's surplus appears as a circular compact
// sequence C_{s, |nα-nε|} at the outputs, the minority type is fully
// eliminated, and the 0/1 counts obey equation (4)'s conservation.
func checkScatter(t *testing.T, n int, tags []tag.Value, s int) {
	t.Helper()
	_, out, err := ScatterRoute(n, tags, s)
	if err != nil {
		t.Fatalf("ScatterRoute(n=%d, tags=%v, s=%d): %v", n, tags, s, err)
	}
	in := tag.Count(tags)
	got := tag.Count(out)

	pairs := min(in.NAlpha, in.NEps)
	wantAlpha, wantEps := in.NAlpha-pairs, in.NEps-pairs
	if got.NAlpha != wantAlpha || got.NEps != wantEps {
		t.Fatalf("n=%d tags=%v s=%d: out %v has (nα=%d, nε=%d), want (%d, %d)",
			n, tags, s, out, got.NAlpha, got.NEps, wantAlpha, wantEps)
	}
	if got.N0 != in.N0+pairs || got.N1 != in.N1+pairs {
		t.Fatalf("n=%d tags=%v s=%d: out %v has (n0=%d, n1=%d), want (%d, %d) per eq. 4",
			n, tags, s, out, got.N0, got.N1, in.N0+pairs, in.N1+pairs)
	}

	// Theorem 3: the surviving dominating-type run is circular compact
	// starting at s.
	classed := make([]tag.Value, n)
	for i, v := range out {
		classed[i] = chiClass(v)
	}
	dom := tag.Eps
	if in.NAlpha > in.NEps {
		dom = tag.Alpha
	}
	l := wantEps
	if dom == tag.Alpha {
		l = wantAlpha
	}
	// Collapse the non-dominating... there is none left besides χ.
	if !seq.IsCompact(classed, s, l, tag.V0, dom) {
		t.Fatalf("n=%d tags=%v s=%d: out %v: %v-run is not C_{%d,%d}", n, tags, s, out, dom, s, l)
	}
}

// enumTags enumerates all tag vectors over {0,1,α,ε} of length n and
// calls fn on each.
func enumTags(n int, fn func([]tag.Value)) {
	vals := []tag.Value{tag.V0, tag.V1, tag.Alpha, tag.Eps}
	tags := make([]tag.Value, n)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			fn(tags)
			return
		}
		for _, v := range vals {
			tags[i] = v
			rec(i + 1)
		}
	}
	rec(0)
}

// TestScatterExhaustiveSmall checks Theorem 3 exhaustively for n = 2 and
// n = 4: every input vector over {0,1,α,ε}, every starting position.
// Note Theorem 3 places no constraint relating nα and nε.
func TestScatterExhaustiveSmall(t *testing.T) {
	for _, n := range []int{2, 4} {
		enumTags(n, func(tags []tag.Value) {
			for s := 0; s < n; s++ {
				checkScatter(t, n, append([]tag.Value(nil), tags...), s)
			}
		})
	}
}

// TestScatterExhaustiveN8 checks every n=8 input vector with one starting
// position (65536 vectors), plus every position on a random subsample.
func TestScatterExhaustiveN8(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive n=8 scatter check skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(5))
	enumTags(8, func(tags []tag.Value) {
		cp := append([]tag.Value(nil), tags...)
		checkScatter(t, 8, cp, rng.Intn(8))
	})
}

// TestScatterRandomLarge checks Theorem 3 on random vectors for larger
// sizes, including heavily skewed α/ε mixes.
func TestScatterRandomLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	vals := []tag.Value{tag.V0, tag.V1, tag.Alpha, tag.Eps}
	for _, n := range []int{16, 32, 64, 256, 1024} {
		for trial := 0; trial < 20; trial++ {
			tags := make([]tag.Value, n)
			// Random mixing weights to hit skewed distributions.
			w := [4]int{1 + rng.Intn(4), 1 + rng.Intn(4), 1 + rng.Intn(4), 1 + rng.Intn(4)}
			total := w[0] + w[1] + w[2] + w[3]
			for i := range tags {
				r := rng.Intn(total)
				for k, wk := range w {
					if r < wk {
						tags[i] = vals[k]
						break
					}
					r -= wk
				}
			}
			checkScatter(t, n, tags, rng.Intn(n))
		}
	}
}

// TestScatterBSNInputs checks Theorem 2's setting: inputs satisfying the
// BSN constraints (eq. 2) always leave zero αs and the eq. (4) counts.
func TestScatterBSNInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{4, 8, 32, 128} {
		for trial := 0; trial < 50; trial++ {
			tags := randomBSNTags(rng, n)
			c := tag.Count(tags)
			if err := c.CheckBSNInput(n); err != nil {
				t.Fatalf("generator violated BSN constraints: %v", err)
			}
			_, out, err := ScatterRoute(n, tags, rng.Intn(n))
			if err != nil {
				t.Fatal(err)
			}
			oc := tag.Count(out)
			if oc.NAlpha != 0 {
				t.Fatalf("n=%d: scatter left %d αs for BSN-legal input %v", n, oc.NAlpha, tags)
			}
			want := c.AfterScatter()
			if oc != want {
				t.Fatalf("n=%d: scatter output counts %+v, want %+v", n, oc, want)
			}
		}
	}
}

// randomBSNTags generates a tag vector satisfying the input constraints
// of a binary splitting network (eq. 1–3): it draws a random multicast-
// style demand with n0+nα <= n/2 and n1+nα <= n/2.
func randomBSNTags(rng *rand.Rand, n int) []tag.Value {
	tags := make([]tag.Value, n)
	for i := range tags {
		tags[i] = tag.Eps
	}
	upperLeft := n / 2 // remaining capacity of upper half
	lowerLeft := n / 2
	order := rng.Perm(n)
	for _, i := range order {
		switch rng.Intn(4) {
		case 0:
			if upperLeft > 0 {
				tags[i] = tag.V0
				upperLeft--
			}
		case 1:
			if lowerLeft > 0 {
				tags[i] = tag.V1
				lowerLeft--
			}
		case 2:
			if upperLeft > 0 && lowerLeft > 0 {
				tags[i] = tag.Alpha
				upperLeft--
				lowerLeft--
			}
		case 3:
			// stays ε
		}
	}
	// The construction guarantees nα <= nε? Not directly: re-check and
	// downgrade αs to εs if needed (each downgrade frees both halves).
	for {
		c := tag.Count(tags)
		if c.NAlpha <= c.NEps {
			break
		}
		for i, v := range tags {
			if v == tag.Alpha {
				tags[i] = tag.Eps
				break
			}
		}
	}
	return tags
}

// TestScatterErrors checks argument validation.
func TestScatterErrors(t *testing.T) {
	if _, err := ScatterPlan(6, make([]tag.Value, 6), 0); err == nil {
		t.Error("ScatterPlan accepted non-power-of-two size")
	}
	if _, err := ScatterPlan(4, make([]tag.Value, 2), 0); err == nil {
		t.Error("ScatterPlan accepted mismatched input length")
	}
	if _, err := ScatterPlan(4, make([]tag.Value, 4), 9); err == nil {
		t.Error("ScatterPlan accepted out-of-range starting position")
	}
}
