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
	return Sequential.ScatterPlan(n, tags, s)
}

// scatterNode is the forward-phase value of one tree node: the surplus
// count l of the dominating idle/split type and the type itself (tag.Eps
// or tag.Alpha). A node with l == 0 canonically reports type ε.
type scatterNode struct {
	l   int
	typ tag.Value
}

// ScatterPlan is the engine-parameterized form of the package-level
// function.
func (e Engine) ScatterPlan(n int, tags []tag.Value, s int) (*Plan, error) {
	if !shuffle.IsPow2(n) || n < 2 {
		return nil, fmt.Errorf("rbn: network size %d is not a power of two >= 2", n)
	}
	p := NewPlan(n)
	if err := e.ScatterPlanInto(p, tags, s, nil); err != nil {
		return nil, err
	}
	return p, nil
}

// ScatterPlanInto computes the scatter plan into p (fully overwriting
// its settings), drawing every sweep array from sc; a nil sc allocates
// transient scratch. This is the zero-allocation form used by the
// routing planner: with a warm scratch and a preallocated plan the call
// allocates nothing.
func (e Engine) ScatterPlanInto(p *Plan, tags []tag.Value, s int, sc *Scratch) error {
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

	// Forward phase (Table 4): leaves report (1, α) for α inputs,
	// (1, ε) for idle inputs and (0, ε) for 0/1 (χ) inputs; internal
	// nodes add same-type surpluses and cancel opposite-type ones.
	fwd := sc.fwd
	invalid := false
	for i, v := range tags {
		switch {
		case v == tag.Alpha:
			fwd[0][i] = scatterNode{1, tag.Alpha}
		case v.IsEps():
			fwd[0][i] = scatterNode{1, tag.Eps}
		case v.IsChi():
			fwd[0][i] = scatterNode{0, tag.Eps}
		default:
			invalid = true
		}
	}
	if invalid {
		return scatterInvalidInputError(tags)
	}
	for j := 1; j <= m; j++ {
		prev, cur := fwd[j-1], fwd[j][:n>>j]
		for b := range cur {
			c0, c1 := prev[2*b], prev[2*b+1]
			switch {
			case c0.typ == c1.typ:
				cur[b] = scatterNode{c0.l + c1.l, c0.typ}
			case c0.l >= c1.l:
				cur[b] = scatterNode{c0.l - c1.l, c0.typ}
			default:
				cur[b] = scatterNode{c1.l - c0.l, c1.typ}
			}
			if cur[b].l == 0 {
				cur[b].typ = tag.Eps
			}
		}
	}

	// Backward phase + switch-setting phase (Table 4).
	ss := sc.ss
	ss[m][0] = s
	for j := m; j >= 1; j-- {
		h := 1 << (j - 1) // switches per node; node size n' = 2h
		child, fprev, col := ss[j-1], fwd[j-1], p.Stages[j-1]
		for b, sNode := range ss[j][:n>>j] {
			lNode := fwd[j][b].l
			c0, c1 := fprev[2*b], fprev[2*b+1]
			base := b * h
			if c0.typ == c1.typ {
				// ε/α-addition: Lemma 1 with l = l0 + l1.
				s1 := (sNode + c0.l) % h
				bset := swbox.Setting(((sNode + c0.l) / h) % 2)
				child[2*b] = sNode % h
				child[2*b+1] = s1
				for i := 0; i < h; i++ {
					if i < s1 {
						col[base+i] = bset
					} else {
						col[base+i] = bset.Opposite()
					}
				}
				continue
			}
			// ε/α-elimination: Lemmas 2–5. The child with the smaller
			// surplus has all of it cancelled by broadcast switches; the
			// larger child's remaining run is routed unicast to form
			// C_{s,l} at this node's outputs.
			var s0, s1 int
			var stmp, ltmp int
			var ucast swbox.Setting
			if c0.l >= c1.l {
				s0 = sNode % h
				s1 = (sNode + lNode) % h
				stmp, ltmp = s1, c1.l
				ucast = swbox.Parallel
			} else {
				s0 = (sNode + lNode) % h
				s1 = sNode % h
				stmp, ltmp = s0, c0.l
				ucast = swbox.Cross
			}
			child[2*b] = s0
			child[2*b+1] = s1
			var bcast swbox.Setting
			if c0.typ == tag.Alpha {
				bcast = swbox.UpperBcast
			} else {
				bcast = swbox.LowerBcast
			}
			dst := col[base : base+h]
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
