package rbn

import (
	"fmt"

	"brsmn/internal/seq"
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
	if !shuffle.IsPow2(n) || n < 2 {
		return nil, fmt.Errorf("rbn: network size %d is not a power of two >= 2", n)
	}
	p := NewPlan(n)
	if err := BitSortPlanInto(p, gamma, s, nil); err != nil {
		return nil, err
	}
	return p, nil
}

// BitSortPlanInto computes the bit-sorting plan into p (fully
// overwriting its settings), drawing the forward/backward sweep arrays
// from sc; a nil sc allocates transient scratch.
func BitSortPlanInto(p *Plan, gamma []bool, s int, sc *Scratch) error {
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

	// Forward phase: cnt[j][b] is l, the γ count of the level-j node
	// covering links [b*2^j, (b+1)*2^j).
	cnt := sc.cnt
	leaf := cnt[0][:n]
	for i, g := range gamma {
		var v uint64
		if g {
			v = 1
		}
		leaf[i] = v
	}
	sumUp(cnt, n)

	// Backward phase: ss[j][b] is the starting position handed to the
	// level-j node; the root receives the caller's s. Each node applies
	// Lemma 1 and configures its merging stage (column j-1).
	ss := sc.ss
	ss[m][0] = s
	for j := m; j >= 1; j-- {
		k := uint(j - 1) // the node's h = 2^k switches
		child, lchild, col := ss[j-1], cnt[j-1], p.Stages[j-1]
		for b, sNode := range ss[j][:n>>j] {
			child[2*b], child[2*b+1] = lemma1(col[b<<k:(b+1)<<k], k, sNode, int(lchild[2*b]))
		}
	}
	return nil
}

// sumUp runs the forward sweep of an n-leaf tree whose leaves are in
// lv[0]: every node of levels 1..log2(n) gets the sum of its children.
func sumUp[T uint64 | int](lv [][]T, n int) {
	for j := 1; n>>j > 0; j++ {
		prev, cur := lv[j-1], lv[j][:n>>j]
		for b := range cur {
			cur[b] = prev[2*b] + prev[2*b+1]
		}
	}
}

// lemma1 configures the merging stage of a node of 2h links (h = 2^k)
// that receives starting position s and whose upper child holds l0 of
// the run (Lemma 1): it writes W^h_{0,s1;b̄,b} into col, the node's h
// switches, as two runs, and returns the children's starting positions
// s mod h and s1 = (s+l0) mod h.
func lemma1(col []swbox.Setting, k uint, s, l0 int) (s0, s1 int) {
	t := s + l0
	mask := len(col) - 1
	s1 = t & mask
	// k&63 spares the shift its width check: k < 64 always.
	b := swbox.Setting(t>>(k&63)) & 1
	if mask == 0 {
		// h = 1 (half of a sweep's nodes): s1 = 0, one switch of b̄.
		col[0] = b ^ 1
		return 0, 0
	}
	seq.Fill(col[:s1], b)
	seq.Fill(col[s1:], b^1) // b̄: Parallel <-> Cross
	return s & mask, s1
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
