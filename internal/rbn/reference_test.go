package rbn

import (
	"fmt"

	"brsmn/internal/seq"
	"brsmn/internal/shuffle"
	"brsmn/internal/swbox"
	"brsmn/internal/tag"
)

// This file keeps straightforward forms of the sweeps and the stage
// apply as test references: Table 6's ε split and Table 3's bit sort as
// two separate forward/backward sweep pairs joined by a sort-bit vector,
// Table 4's scatter on (l, type) node pairs, every Lemma 1 column
// written one switch at a time, and every column applied switch by
// switch through Pair-style division into a second buffer. The package
// code must produce byte-identical plans, outputs and error texts.

// refPair is Plan.Pair by division.
func refPair(j, w int) (p0, p1 int) {
	h := 1 << j
	b := w / h
	i := w % h
	base := b * 2 * h
	return base + i, base + i + h
}

// refLevels allocates one n>>j row per tree level 0..log2(n).
func refLevels(n int) [][]int {
	lv := make([][]int, shuffle.Log2(n)+1)
	for j := range lv {
		lv[j] = make([]int, n>>j)
	}
	return lv
}

// refLemma1Column writes W^h_{0,s1;b̄,b} switch by switch.
func refLemma1Column(col []swbox.Setting, s1 int, bset swbox.Setting) {
	for i := range col {
		if i < s1 {
			col[i] = bset
		} else {
			col[i] = bset.Opposite()
		}
	}
}

// refBitSort is Table 3 into p.
func refBitSort(p *Plan, gamma []bool, s int) error {
	n := p.N
	if len(gamma) != n {
		return fmt.Errorf("rbn: %d input marks for an %d x %d network", len(gamma), n, n)
	}
	if s < 0 || s >= n {
		return fmt.Errorf("rbn: starting position %d out of range [0,%d)", s, n)
	}
	m := p.M
	ls, ss := refLevels(n), refLevels(n)
	for i, g := range gamma {
		if g {
			ls[0][i] = 1
		}
	}
	for j := 1; j <= m; j++ {
		for b := range ls[j] {
			ls[j][b] = ls[j-1][2*b] + ls[j-1][2*b+1]
		}
	}
	ss[m][0] = s
	for j := m; j >= 1; j-- {
		h := 1 << (j - 1)
		for b, sNode := range ss[j] {
			l0 := ls[j-1][2*b]
			s1 := (sNode + l0) % h
			ss[j-1][2*b] = sNode % h
			ss[j-1][2*b+1] = s1
			refLemma1Column(p.Stages[j-1][b*h:(b+1)*h], s1, swbox.Setting(((sNode+l0)/h)%2))
		}
	}
	return nil
}

// refEpsDivide is Table 6 with separate dummy-0 and dummy-1 budgets.
func refEpsDivide(dst, tags []tag.Value) error {
	n := len(tags)
	if len(dst) != n {
		return fmt.Errorf("rbn: ε-divide destination length %d for %d inputs", len(dst), n)
	}
	m := shuffle.Log2(n)
	ne, n1s, ne0, ne1 := refLevels(n), refLevels(n), refLevels(n), refLevels(n)
	idx, bad := -1, tag.Value(0)
	for i, v := range tags {
		switch v {
		case tag.Eps:
			ne[0][i] = 1
		case tag.V1:
			n1s[0][i] = 1
		case tag.V0:
		default:
			idx, bad = i, v
		}
	}
	if idx >= 0 {
		return fmt.Errorf("rbn: ε-divide input %d carries %v; want 0, 1 or ε", idx, bad)
	}
	for j := 1; j <= m; j++ {
		for b := range ne[j] {
			ne[j][b] = ne[j-1][2*b] + ne[j-1][2*b+1]
			n1s[j][b] = n1s[j-1][2*b] + n1s[j-1][2*b+1]
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
	ne1[m][0] = n/2 - n1
	ne0[m][0] = ne[m][0] - ne1[m][0]
	for j := m; j >= 1; j-- {
		for b, e0 := range ne0[j] {
			le, re := ne[j-1][2*b], ne[j-1][2*b+1]
			l0 := min(e0, le)
			ne0[j-1][2*b] = l0
			ne1[j-1][2*b] = le - l0
			ne0[j-1][2*b+1] = e0 - l0
			ne1[j-1][2*b+1] = re - (e0 - l0)
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

// refQuasisort is the two-pass quasisort: ε-divide, then bit-sort the
// sort bits of the divided vector from starting position n/2.
func refQuasisort(p *Plan, divided, tags []tag.Value) error {
	n := p.N
	if len(tags) != n {
		return fmt.Errorf("rbn: %d input tags for an %d x %d network", len(tags), n, n)
	}
	if err := refEpsDivide(divided, tags); err != nil {
		return err
	}
	gamma := make([]bool, n)
	for i, v := range divided {
		gamma[i] = v.SortBit() == 1
	}
	return refBitSort(p, gamma, n/2)
}

// refScatter is Tables 4–5 on (l, type) node pairs.
func refScatter(p *Plan, tags []tag.Value, s int) error {
	n := p.N
	if len(tags) != n {
		return fmt.Errorf("rbn: %d input tags for an %d x %d network", len(tags), n, n)
	}
	if s < 0 || s >= n {
		return fmt.Errorf("rbn: starting position %d out of range [0,%d)", s, n)
	}
	type node struct {
		l   int
		typ tag.Value
	}
	m := p.M
	fwd := make([][]node, m+1)
	for j := range fwd {
		fwd[j] = make([]node, n>>j)
	}
	idx, bad := -1, tag.Value(0)
	for i, v := range tags {
		switch {
		case v == tag.Alpha:
			fwd[0][i] = node{1, tag.Alpha}
		case v.IsEps():
			fwd[0][i] = node{1, tag.Eps}
		case v.IsChi():
			fwd[0][i] = node{0, tag.Eps}
		default:
			idx, bad = i, v
		}
	}
	if idx >= 0 {
		return fmt.Errorf("rbn: input %d carries invalid tag %v", idx, bad)
	}
	for j := 1; j <= m; j++ {
		for b := range fwd[j] {
			c0, c1 := fwd[j-1][2*b], fwd[j-1][2*b+1]
			var c node
			switch {
			case c0.typ == c1.typ:
				c = node{c0.l + c1.l, c0.typ}
			case c0.l >= c1.l:
				c = node{c0.l - c1.l, c0.typ}
			default:
				c = node{c1.l - c0.l, c1.typ}
			}
			if c.l == 0 {
				c.typ = tag.Eps
			}
			fwd[j][b] = c
		}
	}
	ss := refLevels(n)
	ss[m][0] = s
	for j := m; j >= 1; j-- {
		h := 1 << (j - 1)
		for b, sNode := range ss[j] {
			lNode := fwd[j][b].l
			c0, c1 := fwd[j-1][2*b], fwd[j-1][2*b+1]
			col := p.Stages[j-1][b*h : (b+1)*h]
			if c0.typ == c1.typ {
				s1 := (sNode + c0.l) % h
				ss[j-1][2*b] = sNode % h
				ss[j-1][2*b+1] = s1
				refLemma1Column(col, s1, swbox.Setting(((sNode+c0.l)/h)%2))
				continue
			}
			var s0, s1, stmp, ltmp int
			ucast := swbox.Parallel
			if c0.l >= c1.l {
				s0, s1 = sNode%h, (sNode+lNode)%h
				stmp, ltmp = s1, c1.l
			} else {
				s0, s1 = (sNode+lNode)%h, sNode%h
				stmp, ltmp = s0, c0.l
				ucast = swbox.Cross
			}
			ss[j-1][2*b], ss[j-1][2*b+1] = s0, s1
			bcast := swbox.LowerBcast
			if c0.typ == tag.Alpha {
				bcast = swbox.UpperBcast
			}
			var w []swbox.Setting
			switch {
			case sNode+lNode < h:
				w = seq.BinaryCompact(h, stmp, ltmp, ucast, bcast)
			case sNode < h:
				w = seq.TrinaryCompact(h, stmp, ltmp, h-stmp-ltmp, ucast.Opposite(), bcast, ucast)
			case sNode+lNode < 2*h:
				w = seq.BinaryCompact(h, stmp, ltmp, ucast.Opposite(), bcast)
			default:
				w = seq.TrinaryCompact(h, stmp, ltmp, h-stmp-ltmp, ucast, bcast, ucast.Opposite())
			}
			copy(col, w)
		}
	}
	return nil
}

// refTrace applies p column by column through refPair into a fresh
// vector per stage, recording every stage.
func refTrace[T any](p *Plan, in []T, split func(T) (T, T)) ([][]T, error) {
	if len(in) != p.N {
		return nil, fmt.Errorf("rbn: %d inputs for an %d x %d network", len(in), p.N, p.N)
	}
	out := [][]T{append([]T(nil), in...)}
	for j := 0; j < p.M; j++ {
		cur, next := out[j], make([]T, p.N)
		for w, s := range p.Stages[j] {
			p0, p1 := refPair(j, w)
			if s.IsBroadcast() && split == nil {
				return nil, fmt.Errorf("rbn: stage %d switch %d is %v but no split function given", j, w, s)
			}
			next[p0], next[p1] = swbox.Apply(s, cur[p0], cur[p1], split)
		}
		out = append(out, next)
	}
	return out, nil
}

// refApplyTags is ApplyTags through refPair.
func refApplyTags(p *Plan, in []tag.Value) ([]tag.Value, error) {
	if len(in) != p.N {
		return nil, fmt.Errorf("rbn: %d input tags for an %d x %d network", len(in), p.N, p.N)
	}
	cur := append([]tag.Value(nil), in...)
	for j := 0; j < p.M; j++ {
		next := make([]tag.Value, p.N)
		for w, s := range p.Stages[j] {
			p0, p1 := refPair(j, w)
			o0, o1, err := swbox.ApplyTags(s, cur[p0], cur[p1])
			if err != nil {
				return nil, fmt.Errorf("rbn: stage %d switch %d: %w", j, w, err)
			}
			next[p0], next[p1] = o0, o1
		}
		cur = next
	}
	return cur, nil
}
