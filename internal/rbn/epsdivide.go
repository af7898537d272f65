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
	n := len(tags)
	if !shuffle.IsPow2(n) || n < 2 {
		return nil, fmt.Errorf("rbn: input size %d is not a power of two >= 2", n)
	}
	out := make([]tag.Value, n)
	if err := EpsDivideInto(out, tags, nil); err != nil {
		return nil, err
	}
	return out, nil
}

// EpsDivideInto is EpsDivide writing the relabelled vector into dst
// (len(dst) == len(tags), dst may alias tags), drawing the sweep arrays
// from sc; a nil sc allocates transient scratch.
func EpsDivideInto(dst []tag.Value, tags []tag.Value, sc *Scratch) error {
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
	if err := epsForward(tags, sc); err != nil {
		return err
	}

	// Backward phase: split each node's ε budget between dummy 0s and
	// dummy 1s, filling dummy 0s greedily into the left child — any split
	// respecting the per-node ε counts works, and this one needs only a
	// min and a subtraction per node (Table 6). A node's dummy-1 budget
	// is its ε count minus its dummy-0 budget, so only the latter is
	// stored. Every level is fully written top-down, so no pre-zeroing
	// is needed.
	cnt, ne0 := sc.cnt, sc.ne0
	ne0[m][0] = rootDummy0(cnt[m][0], n)
	for j := m; j >= 1; j-- {
		cc, ne0c := cnt[j-1], ne0[j-1]
		for b, e0 := range ne0[j][:n>>j] {
			d0 := min(e0, int(cc[2*b]&epsMask))
			ne0c[2*b] = d0
			ne0c[2*b+1] = e0 - d0
		}
	}
	relabel(dst, tags, ne0[0])
	return nil
}

// epsMask selects the ε count of a packed Scratch.cnt entry; the real-1
// count sits above it. Both are at most n, far below 2^32.
const epsMask = 1<<32 - 1

// epsForward runs Table 6's forward sweep into sc.cnt: each node's ε
// count and real-1 count (Section 7.2 counts n1 from bit b2), packed in
// one word so a single sum computes both. It rejects inputs that are not
// 0, 1 or ε, and inputs with more than n/2 ones or zeros.
func epsForward(tags []tag.Value, sc *Scratch) error {
	n := len(tags)
	cnt := sc.cnt
	// The leaf level writes every entry (scratch rows carry stale prior
	// sweeps).
	leaf := cnt[0][:n]
	invalid := false
	for i, v := range tags {
		var c uint64
		switch v {
		case tag.Eps:
			c = 1
		case tag.V1:
			c = 1 << 32
		case tag.V0:
		default:
			invalid = true
		}
		leaf[i] = c
	}
	if invalid {
		return epsInvalidInputError(tags)
	}
	sumUp(cnt, n)
	root := cnt[shuffle.Log2(n)][0]
	n1 := int(root >> 32)
	n0 := n - n1 - int(root&epsMask)
	if n1 > n/2 {
		return fmt.Errorf("rbn: ε-divide input has %d ones, more than n/2 = %d", n1, n/2)
	}
	if n0 > n/2 {
		return fmt.Errorf("rbn: ε-divide input has %d zeros, more than n/2 = %d", n0, n/2)
	}
	return nil
}

// rootDummy0 is the root's dummy-0 budget: n/2 − n1 of its εs become
// dummy 1s, the rest dummy 0s.
func rootDummy0(root uint64, n int) int {
	return int(root&epsMask) - (n/2 - int(root>>32))
}

// relabel writes tags into dst with every ε relabelled by its leaf's
// dummy-0 budget e0: ε0 where it is 1, ε1 where it is 0.
func relabel(dst, tags []tag.Value, e0 []int) {
	e0 = e0[:len(tags)]
	for i, v := range tags {
		if v == tag.Eps {
			v = tag.Eps1
			if e0[i] == 1 {
				v = tag.Eps0
			}
		}
		dst[i] = v
	}
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
	if !shuffle.IsPow2(n) || n < 2 {
		return nil, nil, fmt.Errorf("rbn: network size %d is not a power of two >= 2", n)
	}
	p := NewPlan(n)
	divided := make([]tag.Value, n)
	if err := QuasisortPlanInto(p, divided, tags, nil); err != nil {
		return nil, nil, err
	}
	return p, divided, nil
}

// QuasisortPlanInto computes the quasisort plan into p (fully
// overwriting its settings) and the ε-divided tag vector into divided
// (length p.N), drawing every sweep array from sc; a nil sc allocates
// transient scratch.
func QuasisortPlanInto(p *Plan, divided []tag.Value, tags []tag.Value, sc *Scratch) error {
	n := p.N
	if len(tags) != n {
		return fmt.Errorf("rbn: %d input tags for an %d x %d network", len(tags), n, n)
	}
	if len(divided) != n {
		return fmt.Errorf("rbn: ε-divide destination length %d for %d inputs", len(divided), n)
	}
	if sc == nil {
		sc = &Scratch{}
	}
	sc.ensure(n)
	m := p.M
	if err := epsForward(tags, sc); err != nil {
		return err
	}

	// One backward sweep runs Table 6 and Table 3 together: each node
	// splits its ε budget between its children and, in the same step,
	// sets its merging stage by Lemma 1. The bit sort's γs are the real
	// and dummy 1s, so the upper child holds l0 = n1 + nε − nε0 of them,
	// from its own counts and the dummy-0 budget d0 just given to it.
	// The root receives starting position n/2: C_{n/2, n/2; 0, 1} =
	// 0^(n/2) 1^(n/2), an ascending bit sort.
	cnt, ne0, ss := sc.cnt, sc.ne0, sc.ss
	ne0[m][0] = rootDummy0(cnt[m][0], n)
	ss[m][0] = n / 2
	for j := m; j >= 1; j-- {
		k := uint(j - 1) // the node's h = 2^k switches
		cc, ne0c, child, col := cnt[j-1], ne0[j-1], ss[j-1], p.Stages[j-1]
		e0s := ne0[j][:n>>j]
		for b, sNode := range ss[j][:n>>j] {
			e0 := e0s[b]
			up := cc[2*b]
			ne := int(up & epsMask)
			d0 := min(e0, ne)
			ne0c[2*b] = d0
			ne0c[2*b+1] = e0 - d0
			child[2*b], child[2*b+1] = lemma1(col[b<<k:(b+1)<<k], k, sNode, int(up>>32)+ne-d0)
		}
	}
	relabel(divided, tags, ne0[0])
	return nil
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
