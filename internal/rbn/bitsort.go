package rbn

import (
	"fmt"

	"brsmn/internal/shuffle"
	"brsmn/internal/swbox"
)

// BitSortPlan computes switch settings for an n x n RBN so that the γ
// inputs (gamma[i] == true) appear at the outputs as the circular compact
// sequence C^n_{s,l;β,γ} — all γs contiguous modulo n starting at output
// position s — for any requested s (Theorem 1). It is the distributed
// self-routing algorithm of Table 3: a forward sweep sums the γ counts up
// the binary tree embedded in the RBN, and a backward sweep distributes
// starting positions and sets every merging stage per Lemma 1.
//
// With γ = "destination bit is 1" and s = n/2, the plan sorts a full
// permutation's current address bit into ascending order,
// 0^(n/2) 1^(n/2) — the bit-sorting network of Section 4.
func BitSortPlan(n int, gamma []bool, s int) (*Plan, error) {
	return Sequential.BitSortPlan(n, gamma, s)
}

// BitSortPlan is the engine-parameterized form of the package-level
// function.
func (e Engine) BitSortPlan(n int, gamma []bool, s int) (*Plan, error) {
	if !shuffle.IsPow2(n) || n < 2 {
		return nil, fmt.Errorf("rbn: network size %d is not a power of two >= 2", n)
	}
	p := NewPlan(n)
	if err := e.BitSortPlanInto(p, gamma, s, nil); err != nil {
		return nil, err
	}
	return p, nil
}

// BitSortPlanInto computes the bit-sorting plan into p (fully
// overwriting its settings), drawing the forward/backward sweep arrays
// from sc; a nil sc allocates transient scratch.
func (e Engine) BitSortPlanInto(p *Plan, gamma []bool, s int, sc *Scratch) error {
	n := p.N
	if len(gamma) != n {
		return fmt.Errorf("rbn: %d input marks for an %d x %d network", len(gamma), n, n)
	}
	if s < 0 || s >= n {
		return fmt.Errorf("rbn: starting position %d out of range [0,%d)", s, n)
	}
	if sc == nil {
		sc = &Scratch{}
	}
	sc.ensure(n)
	m := p.M

	// Forward phase: ls[j][b] is l, the γ count of the level-j node
	// covering links [b*2^j, (b+1)*2^j).
	ls := sc.ls
	for i, g := range gamma {
		v := 0
		if g {
			v = 1
		}
		ls[0][i] = v
	}
	for j := 1; j <= m; j++ {
		prev, cur := ls[j-1], ls[j][:n>>j]
		for b := range cur {
			cur[b] = prev[2*b] + prev[2*b+1]
		}
	}

	// Backward phase: ss[j][b] is the starting position handed to the
	// level-j node; the root receives the caller's s. Each node applies
	// Lemma 1 and configures its merging stage (column j-1).
	ss := sc.ss
	ss[m][0] = s
	for j := m; j >= 1; j-- {
		h := 1 << (j - 1) // half the node size; switches per node
		child, lchild, col := ss[j-1], ls[j-1], p.Stages[j-1]
		for b, sNode := range ss[j][:n>>j] {
			l0 := lchild[2*b]
			s1 := (sNode + l0) % h
			bset := swbox.Setting(((sNode + l0) / h) % 2)
			child[2*b] = sNode % h
			child[2*b+1] = s1
			// W^h_{0,s1;b̄,b}: the first s1 switches get bset.
			base := b * h
			for i := 0; i < h; i++ {
				if i < s1 {
					col[base+i] = bset
				} else {
					col[base+i] = bset.Opposite()
				}
			}
		}
	}
	return nil
}

// BitSortRoute composes BitSortPlan with Apply: it routes the boolean
// vector itself and returns the plan and the output vector, primarily for
// verification.
func BitSortRoute(n int, gamma []bool, s int) (*Plan, []bool, error) {
	p, err := BitSortPlan(n, gamma, s)
	if err != nil {
		return nil, nil, err
	}
	out, err := Apply(p, gamma, nil)
	if err != nil {
		return nil, nil, err
	}
	return p, out, nil
}
