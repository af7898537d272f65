package rbn

import (
	"fmt"

	"brsmn/internal/shuffle"
	"brsmn/internal/tag"
)

// EpsDivide implements the distributed ε-dividing algorithm of Table 6
// (Section 6.2). Its input is the tag vector reaching the quasisorting
// network — values in {0, 1, ε} with at most n/2 zeros and at most n/2
// ones — and its output relabels every ε as a dummy 0 (ε0) or dummy 1
// (ε1) so that exactly n/2 links carry a (real or dummy) 0 and n/2 carry
// a (real or dummy) 1. A plain bit-sorting pass on the resulting sort bits
// then realizes the quasisorting function.
func EpsDivide(tags []tag.Value) ([]tag.Value, error) {
	return Sequential.EpsDivide(tags)
}

// EpsDivide is the engine-parameterized form of the package-level
// function.
func (e Engine) EpsDivide(tags []tag.Value) ([]tag.Value, error) {
	n := len(tags)
	if !shuffle.IsPow2(n) || n < 2 {
		return nil, fmt.Errorf("rbn: input size %d is not a power of two >= 2", n)
	}
	out := make([]tag.Value, n)
	if err := e.EpsDivideInto(out, tags, nil); err != nil {
		return nil, err
	}
	return out, nil
}

// EpsDivideInto is EpsDivide writing the relabelled vector into dst
// (len(dst) == len(tags), dst may alias tags), drawing the sweep arrays
// from sc; a nil sc allocates transient scratch.
func (e Engine) EpsDivideInto(dst []tag.Value, tags []tag.Value, sc *Scratch) error {
	n := len(tags)
	if !shuffle.IsPow2(n) || n < 2 {
		return fmt.Errorf("rbn: input size %d is not a power of two >= 2", n)
	}
	if len(dst) != n {
		return fmt.Errorf("rbn: ε-divide destination length %d for %d inputs", len(dst), n)
	}
	if sc == nil {
		sc = &Scratch{}
	}
	sc.ensure(n)
	m := shuffle.Log2(n)

	// Forward phase: per-node ε count; n1 (the real-1 count) is also a
	// forward reduction (Section 7.2 counts it from bit b2). The leaf
	// level writes every entry (scratch rows carry stale prior sweeps).
	ne := sc.ne
	n1s := sc.n1s
	invalid := false
	for i, v := range tags {
		eps, one := 0, 0
		switch {
		case v == tag.Eps:
			eps = 1
		case v == tag.V1:
			one = 1
		case v == tag.V0:
		default:
			invalid = true
		}
		ne[0][i] = eps
		n1s[0][i] = one
	}
	if invalid {
		return epsInvalidInputError(tags)
	}
	for j := 1; j <= m; j++ {
		nePrev, neCur := ne[j-1], ne[j][:n>>j]
		n1Prev, n1Cur := n1s[j-1], n1s[j]
		for b := range neCur {
			neCur[b] = nePrev[2*b] + nePrev[2*b+1]
			n1Cur[b] = n1Prev[2*b] + n1Prev[2*b+1]
		}
	}

	n1 := n1s[m][0]
	n0 := n - n1 - ne[m][0]
	if n1 > n/2 {
		return fmt.Errorf("rbn: ε-divide input has %d ones, more than n/2 = %d", n1, n/2)
	}
	if n0 > n/2 {
		return fmt.Errorf("rbn: ε-divide input has %d zeros, more than n/2 = %d", n0, n/2)
	}

	// Backward phase: split each node's ε budget between dummy 0s and
	// dummy 1s, filling dummy 0s greedily into the left child — any split
	// respecting the per-node ε counts works, and this one needs only a
	// min and three subtractions per node (Table 6). Every level is fully
	// written top-down, so no pre-zeroing is needed.
	ne0 := sc.ne0
	ne1 := sc.ne1
	ne1[m][0] = n/2 - n1
	ne0[m][0] = ne[m][0] - ne1[m][0]
	for j := m; j >= 1; j-- {
		nec, ne0c, ne1c := ne[j-1], ne0[j-1], ne1[j-1]
		for b, e0 := range ne0[j][:n>>j] {
			le := nec[2*b]   // εs in the left child
			re := nec[2*b+1] // εs in the right child
			l0 := min(e0, le)
			ne0c[2*b] = l0
			ne1c[2*b] = le - l0
			ne0c[2*b+1] = e0 - l0
			ne1c[2*b+1] = re - (e0 - l0)
		}
	}

	for i, v := range tags {
		if v == tag.Eps {
			switch {
			case ne0[0][i] == 1:
				v = tag.Eps0
			case ne1[0][i] == 1:
				v = tag.Eps1
			}
		}
		dst[i] = v
	}
	return nil
}

// epsInvalidInputError is the ε-divide leaf validation error: the last
// offending index wins.
func epsInvalidInputError(tags []tag.Value) error {
	idx, bad := -1, tag.Value(0)
	for i, v := range tags {
		if v != tag.V0 && v != tag.V1 && v != tag.Eps {
			idx, bad = i, v
		}
	}
	return fmt.Errorf("rbn: ε-divide input %d carries %v; want 0, 1 or ε", idx, bad)
}

// QuasisortPlan computes the switch settings of an n x n RBN acting as
// the quasisorting network of a binary splitting network (Section 5.2):
// after ε-dividing, the (real and dummy) sort bits are bit-sorted with
// starting position n/2, which routes every real 0 to the upper half of
// the outputs and every real 1 to the lower half, εs filling the gaps.
// It returns the plan together with the ε-divided tag vector whose sort
// bits the plan was computed for.
func QuasisortPlan(n int, tags []tag.Value) (*Plan, []tag.Value, error) {
	return Sequential.QuasisortPlan(n, tags)
}

// QuasisortPlan is the engine-parameterized form of the package-level
// function.
func (e Engine) QuasisortPlan(n int, tags []tag.Value) (*Plan, []tag.Value, error) {
	if !shuffle.IsPow2(n) || n < 2 {
		return nil, nil, fmt.Errorf("rbn: network size %d is not a power of two >= 2", n)
	}
	p := NewPlan(n)
	divided := make([]tag.Value, n)
	if err := e.QuasisortPlanInto(p, divided, tags, nil); err != nil {
		return nil, nil, err
	}
	return p, divided, nil
}

// QuasisortPlanInto computes the quasisort plan into p (fully
// overwriting its settings) and the ε-divided tag vector into divided
// (length p.N), drawing every sweep array from sc; a nil sc allocates
// transient scratch.
func (e Engine) QuasisortPlanInto(p *Plan, divided []tag.Value, tags []tag.Value, sc *Scratch) error {
	n := p.N
	if len(tags) != n {
		return fmt.Errorf("rbn: %d input tags for an %d x %d network", len(tags), n, n)
	}
	if sc == nil {
		sc = &Scratch{}
	}
	sc.ensure(n)
	if err := e.EpsDivideInto(divided, tags, sc); err != nil {
		return err
	}
	gamma := sc.gamma[:n]
	for i, v := range divided {
		gamma[i] = v.SortBit() == 1
	}
	// C_{n/2, n/2; 0, 1} = 0^(n/2) 1^(n/2): ascending bit sort.
	return e.BitSortPlanInto(p, gamma, n/2, sc)
}

// QuasisortRoute composes QuasisortPlan with tag routing and returns the
// plan, the ε-divided input tags, and the output tags (with dummies
// reverted to plain ε).
func QuasisortRoute(n int, tags []tag.Value) (*Plan, []tag.Value, []tag.Value, error) {
	p, divided, err := QuasisortPlan(n, tags)
	if err != nil {
		return nil, nil, nil, err
	}
	out, err := ApplyTags(p, divided)
	if err != nil {
		return nil, nil, nil, err
	}
	for i, v := range out {
		out[i] = v.Real()
	}
	return p, divided, out, nil
}
