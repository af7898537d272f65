package rbn

import (
	"fmt"

	"brsmn/internal/seq"
	"brsmn/internal/shuffle"
	"brsmn/internal/swbox"
	"brsmn/internal/tag"
)

// ScatterPlan computes switch settings for an n x n RBN acting as the
// scatter network of a binary splitting network (Section 5.1): every α
// input is paired with an ε input at some broadcast switch, where the pair
// becomes a 0 and a 1, so the outputs carry only {0, 1, ε} values
// (Theorem 2). The surviving dominating-type values (the |nε-nα| unpaired
// εs, or unpaired αs if αs dominate) appear at the outputs as a circular
// compact sequence starting at position s (Theorem 3).
//
// This is the distributed algorithm of Table 4 with the compact-setting
// subroutines of Table 5: the forward sweep computes each subtree's
// dominating type and surplus l; the backward sweep distributes starting
// positions and configures each merging stage by Lemma 1 (both children
// the same type: ε/α-addition) or Lemmas 2–5 (opposite types:
// ε/α-elimination via broadcast switches).
func ScatterPlan(n int, tags []tag.Value, s int) (*Plan, error) {
	if !shuffle.IsPow2(n) || n < 2 {
		return nil, fmt.Errorf("rbn: network size %d is not a power of two >= 2", n)
	}
	p := NewPlan(n)
	if err := ScatterPlanInto(p, tags, s, nil); err != nil {
		return nil, err
	}
	return p, nil
}

// ScatterPlanInto computes the scatter plan into p (fully overwriting
// its settings), drawing every sweep array from sc; a nil sc allocates
// transient scratch. This is the zero-allocation form used by the
// routing planner: with a warm scratch and a preallocated plan the call
// allocates nothing.
func ScatterPlanInto(p *Plan, tags []tag.Value, s int, sc *Scratch) error {
	n := p.N
	if len(tags) != n {
		return fmt.Errorf("rbn: %d input tags for an %d x %d network", len(tags), n, n)
	}
	if s < 0 || s >= n {
		return fmt.Errorf("rbn: starting position %d out of range [0,%d)", s, n)
	}
	if sc == nil {
		sc = &Scratch{}
	}
	sc.ensure(n)
	m := p.M

	// Forward phase (Table 4): each node's signed surplus d = nα − nε
	// carries Table 4's pair (l, type): l = |d|, and the dominating type
	// is α when d > 0 and ε otherwise (a node with l == 0 reports ε).
	// Leaves hold +1 for α, −1 for idle inputs and 0 for 0/1 (χ) inputs;
	// a sum adds same-type surpluses and cancels opposite-type ones.
	sur := sc.sur
	leaf := sur[0][:n]
	invalid := false
	for i, v := range tags {
		switch {
		case v == tag.Alpha:
			leaf[i] = 1
		case v.IsEps():
			leaf[i] = -1
		case v.IsChi():
			leaf[i] = 0
		default:
			invalid = true
		}
	}
	if invalid {
		return scatterInvalidInputError(tags)
	}
	sumUp(sur, n)

	// Backward phase + switch-setting phase (Table 4).
	ss := sc.ss
	ss[m][0] = s
	for j := m; j >= 1; j-- {
		k := uint(j - 1) // the node's h = 2^k switches; node size n' = 2h
		h := 1 << k
		mask := h - 1
		child, dprev, col := ss[j-1], sur[j-1], p.Stages[j-1]
		for b, sNode := range ss[j][:n>>j] {
			d0, d1 := dprev[2*b], dprev[2*b+1]
			dst := col[b<<k : (b+1)<<k]
			if (d0 > 0) == (d1 > 0) {
				// ε/α-addition: Lemma 1 with l = l0 + l1.
				child[2*b], child[2*b+1] = lemma1(dst, k, sNode, abs(d0))
				continue
			}
			// ε/α-elimination: Lemmas 2–5. The child with the smaller
			// surplus has all of it cancelled by broadcast switches; the
			// larger child's remaining run is routed unicast to form
			// C_{s,l} at this node's outputs.
			l0, l1, lNode := abs(d0), abs(d1), abs(d0+d1)
			var s0, s1 int
			var stmp, ltmp int
			var ucast swbox.Setting
			if l0 >= l1 {
				s0 = sNode & mask
				s1 = (sNode + lNode) & mask
				stmp, ltmp = s1, l1
				ucast = swbox.Parallel
			} else {
				s0 = (sNode + lNode) & mask
				s1 = sNode & mask
				stmp, ltmp = s0, l0
				ucast = swbox.Cross
			}
			child[2*b] = s0
			child[2*b+1] = s1
			bcast := swbox.LowerBcast
			if d0 > 0 { // the upper child's surplus is α
				bcast = swbox.UpperBcast
			}
			switch {
			case sNode+lNode < h:
				seq.CompactInto(dst, stmp, ltmp, ucast, bcast)
			case sNode < h: // and sNode+lNode >= h
				seq.TrinaryCompactInto(dst, stmp, ltmp, h-stmp-ltmp, ucast.Opposite(), bcast, ucast)
			case sNode+lNode < 2*h: // and sNode >= h
				seq.CompactInto(dst, stmp, ltmp, ucast.Opposite(), bcast)
			default: // sNode >= h and sNode+lNode >= 2h
				seq.TrinaryCompactInto(dst, stmp, ltmp, h-stmp-ltmp, ucast, bcast, ucast.Opposite())
			}
		}
	}
	return nil
}

// abs returns |x|.
func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// scatterInvalidInputError is the scatter leaf validation error: the
// last offending index wins.
func scatterInvalidInputError(tags []tag.Value) error {
	idx, bad := -1, tag.Value(0)
	for i, v := range tags {
		if !v.Valid() {
			idx, bad = i, v
		}
	}
	return fmt.Errorf("rbn: input %d carries invalid tag %v", idx, bad)
}

// ScatterRoute composes ScatterPlan with tag routing and returns the plan
// and the output tags. The output contains no α values and satisfies the
// count relations of equation (4).
func ScatterRoute(n int, tags []tag.Value, s int) (*Plan, []tag.Value, error) {
	p, err := ScatterPlan(n, tags, s)
	if err != nil {
		return nil, nil, err
	}
	out, err := ApplyTags(p, tags)
	if err != nil {
		return nil, nil, err
	}
	return p, out, nil
}
