package rbn

import (
	"math/rand"
	"testing"

	"brsmn/internal/tag"
)

// randomQuasiTags builds a {0,1,ε} vector with at most n/2 zeros and at
// most n/2 ones — the post-scatter inputs a quasisorting network sees.
func randomQuasiTags(rng *rand.Rand, n int) []tag.Value {
	tags := make([]tag.Value, n)
	for i := range tags {
		tags[i] = tag.Eps
	}
	n0 := rng.Intn(n/2 + 1)
	n1 := rng.Intn(n/2 + 1)
	perm := rng.Perm(n)
	for i := 0; i < n0; i++ {
		tags[perm[i]] = tag.V0
	}
	for i := 0; i < n1; i++ {
		tags[perm[n/2+i]] = tag.V1 // disjoint positions: perm[n/2..] vs perm[..n/2)
	}
	return tags
}

// TestEpsDivideBalances checks Table 6's contract: after dividing, real
// and dummy 0s total n/2 and real and dummy 1s total n/2, every ε gets a
// dummy label, and non-ε inputs are untouched.
func TestEpsDivideBalances(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, n := range []int{2, 4, 8, 64, 512} {
		for trial := 0; trial < 50; trial++ {
			tags := randomQuasiTags(rng, n)
			out, err := EpsDivide(tags)
			if err != nil {
				t.Fatalf("EpsDivide(%v): %v", tags, err)
			}
			zeros, ones := 0, 0
			for i, v := range out {
				if tags[i] != tag.Eps {
					if v != tags[i] {
						t.Fatalf("n=%d: input %d changed from %v to %v", n, i, tags[i], v)
					}
				} else if v != tag.Eps0 && v != tag.Eps1 {
					t.Fatalf("n=%d: ε input %d left as %v", n, i, v)
				}
				if v.SortBit() == 0 {
					zeros++
				} else {
					ones++
				}
			}
			if zeros != n/2 || ones != n/2 {
				t.Fatalf("n=%d: divided into %d zeros and %d ones, want %d each (input %v)",
					n, zeros, ones, n/2, tags)
			}
		}
	}
}

// TestEpsDivideRejectsOverload checks the n/2 bounds are enforced.
func TestEpsDivideRejectsOverload(t *testing.T) {
	tags := []tag.Value{tag.V1, tag.V1, tag.V1, tag.Eps}
	if _, err := EpsDivide(tags); err == nil {
		t.Error("EpsDivide accepted 3 ones in a 4-input network")
	}
	tags = []tag.Value{tag.V0, tag.V0, tag.V0, tag.V0}
	if _, err := EpsDivide(tags); err == nil {
		t.Error("EpsDivide accepted 4 zeros in a 4-input network")
	}
	tags = []tag.Value{tag.Alpha, tag.Eps, tag.Eps, tag.Eps}
	if _, err := EpsDivide(tags); err == nil {
		t.Error("EpsDivide accepted an α input")
	}
}

// TestQuasisortRoutesHalves checks the quasisorting contract of Section
// 5.2: every real 0 reaches the upper half of the outputs and every real
// 1 the lower half, with εs filling the gaps.
func TestQuasisortRoutesHalves(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{2, 4, 8, 32, 256} {
		for trial := 0; trial < 40; trial++ {
			tags := randomQuasiTags(rng, n)
			_, _, out, err := QuasisortRoute(n, tags)
			if err != nil {
				t.Fatalf("QuasisortRoute(%v): %v", tags, err)
			}
			in := tag.Count(tags)
			oc := tag.Count(out)
			if oc != in {
				t.Fatalf("n=%d: quasisort changed counts from %+v to %+v", n, in, oc)
			}
			for i, v := range out {
				if v == tag.V0 && i >= n/2 {
					t.Fatalf("n=%d input %v: real 0 at lower-half output %d (%v)", n, tags, i, out)
				}
				if v == tag.V1 && i < n/2 {
					t.Fatalf("n=%d input %v: real 1 at upper-half output %d (%v)", n, tags, i, out)
				}
			}
		}
	}
}

// TestQuasisortPreservesPayloads routes identified payloads and checks
// that each non-idle input appears exactly once at the outputs.
func TestQuasisortPreservesPayloads(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	type item struct {
		id int
		v  tag.Value
	}
	for _, n := range []int{8, 64} {
		tags := randomQuasiTags(rng, n)
		p, _, err := QuasisortPlan(n, tags)
		if err != nil {
			t.Fatal(err)
		}
		in := make([]item, n)
		for i := range in {
			in[i] = item{i, tags[i]}
		}
		out, err := Apply(p, in, nil)
		if err != nil {
			t.Fatal(err)
		}
		seen := make([]bool, n)
		for _, it := range out {
			if seen[it.id] {
				t.Fatalf("n=%d: payload %d duplicated", n, it.id)
			}
			seen[it.id] = true
		}
	}
}
