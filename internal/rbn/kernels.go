package rbn

import (
	"fmt"
	"math/bits"

	"brsmn/internal/seq"
	"brsmn/internal/swbox"
	"brsmn/internal/tag"
)

// Word-parallel sweep kernels.
//
// The scalar sweeps in bitsort.go, epsdivide.go and scatter.go walk the
// RBN's embedded binary tree one tag per iteration. These kernels run the
// same algorithms over 64 links per step: the tag vector lives in the
// Table 1 bitplanes of a tag.PackedVec, per-node counts come from
// popcounts over masked plane words, and every emitted column is at most
// two or three runs of identical swbox.Settings written as run-fills.
// They are exact drop-in replacements — the plans (and the ε-divided
// vector, and every error message) are byte-identical to the scalar
// reference, which kernels_test.go proves differentially.
//
// Shape of the rewrite, per algorithm:
//
//   - bit sort: the forward γ-count sweep materializes per-node counts
//     only at and above the word level (a level-6 node is exactly one
//     plane word, so its count is one popcount); below the word level a
//     node's count is a masked popcount computed on demand during the
//     backward sweep, which touches each node once anyway. The backward
//     Lemma 1 emission W^h_{0,s1} is two contiguous fills.
//   - ε-divide: the greedy-left dummy-0 split of Table 6 assigns dummy
//      0s to the first ne0 εs in link order (the left-child min() cascade
//     is exactly a stable prefix take), so the whole backward budget tree
//     collapses to one root subtraction plus a rank cutoff over the ε
//     plane — no per-node arrays at all.
//   - scatter: the forward dominating-type reduction is the signed sum
//     v = #α − #ε per node (addition adds same-type surpluses,
//     cancellation is the sign arithmetic; v == 0 is the canonical ε of
//     the scalar code), so one signed int per node at and above the word
//     level and masked popcount pairs below it replace the scatterNode
//     tree. The backward Lemma 1–5 dispatch is unchanged per node; its
//     compact sequences were already run-fills after the seq rewrite.
//
// Like the scalar sweeps, the kernels run on the caller's goroutine: at
// 64 lanes per step a 1024-link sweep is a few hundred nanoseconds.
// Coarse parallelism stays where it pays — across BSN subtrees in the
// planner's recursion.

// packedMinN is the smallest network the packed kernels accept: one full
// 64-lane word per plane, which also guarantees every tree level at or
// above level 6 is whole words and needs no tail masking.
const packedMinN = 64

// usePacked reports whether the packed kernels should serve a size-n
// call on this engine.
func (e Engine) usePacked(n int) bool { return !e.Scalar && n >= packedMinN }

// fillHalves emits the Lemma 1 column W^h_{0,s1;bset,bset'} for one
// node: the first s1 switches carry bset, the rest its opposite.
func fillHalves(dst []swbox.Setting, s1 int, bset swbox.Setting) {
	seq.Fill(dst[:s1], bset)
	seq.Fill(dst[s1:], bset.Opposite())
}

// packGammaBits packs a boolean γ vector into a bitmap; len(gamma) must
// be a multiple of 64.
func packGammaBits(dst []uint64, gamma []bool) {
	var acc uint64
	wi := 0
	for i, g := range gamma {
		if g {
			acc |= 1 << (uint(i) & 63)
		}
		if uint(i)&63 == 63 {
			dst[wi] = acc
			acc = 0
			wi++
		}
	}
}

// subCount returns the population of the level-lvl node idx of bitmap g
// for lvl < 6: the node spans 2^lvl bits inside a single word.
func subCount(g []uint64, lvl, idx int) int {
	start := idx << lvl
	mask := uint64(1)<<(1<<lvl) - 1
	return bits.OnesCount64(g[start>>6] >> (uint(start) & 63) & mask)
}

// packedBitSort is BitSortPlanInto over a γ bitmap. ls rows 6..m-1 of sc
// are reused for the materialized word-level-and-up counts.
func packedBitSort(p *Plan, g []uint64, s int, sc *Scratch) error {
	n, m := p.N, p.M
	ls := sc.ls

	// Forward phase: one popcount per word at level 6, halving sums above.
	for w := range g {
		ls[6][w] = bits.OnesCount64(g[w])
	}
	for j := 7; j <= m; j++ {
		prev, cur := ls[j-1], ls[j]
		for b := 0; b < n>>j; b++ {
			cur[b] = prev[2*b] + prev[2*b+1]
		}
	}

	// Backward phase: Lemma 1 per node, columns emitted as two fills.
	ss := sc.ss
	ss[m][0] = s
	for j := m; j >= 1; j-- {
		h := 1 << (j - 1)
		col := p.Stages[j-1]
		cur := ss[j]
		for b := 0; b < n>>j; b++ {
			sNode := cur[b]
			var l0 int
			if j-1 >= 6 {
				l0 = ls[j-1][2*b]
			} else {
				l0 = subCount(g, j-1, 2*b)
			}
			s1 := (sNode + l0) % h
			if j > 1 { // level-0 starting positions are never read
				ss[j-1][2*b] = sNode % h
				ss[j-1][2*b+1] = s1
			}
			fillHalves(col[b*h:b*h+h], s1, swbox.Setting(((sNode+l0)/h)%2))
		}
	}
	return nil
}

// epsInvalidInputError is the ε-divide leaf validation error of both
// the scalar and the packed sweep: the last offending index wins.
func epsInvalidInputError(tags []tag.Value) error {
	idx, bad := -1, tag.Value(0)
	for i, v := range tags {
		if v != tag.V0 && v != tag.V1 && v != tag.Eps {
			idx, bad = i, v
		}
	}
	return fmt.Errorf("rbn: ε-divide input %d carries %v; want 0, 1 or ε", idx, bad)
}

// packedEpsDivide is EpsDivideInto over the packed planes of tags. When
// g is non-nil it additionally emits the sort-bit bitmap of the divided
// vector (the γ input of the quasisorting bit sort), fusing the relabel
// pass with the γ extraction.
func packedEpsDivide(dst []tag.Value, tags []tag.Value, sc *Scratch, g []uint64) error {
	n := len(tags)
	pv := &sc.pv
	hasDummies, perr := pv.PackInto(tags)
	var alphaAny uint64
	if perr == nil {
		for w := 0; w < n>>6; w++ {
			alphaAny |= pv.AlphaWord(w)
		}
	}
	if perr != nil || hasDummies || alphaAny != 0 {
		return epsInvalidInputError(tags)
	}

	n1, ne := 0, 0
	for w := 0; w < n>>6; w++ {
		n1 += bits.OnesCount64(pv.OneWord(w))
		ne += bits.OnesCount64(pv.EpsWord(w))
	}
	n0 := n - n1 - ne
	if n1 > n/2 {
		return fmt.Errorf("rbn: ε-divide input has %d ones, more than n/2 = %d", n1, n/2)
	}
	if n0 > n/2 {
		return fmt.Errorf("rbn: ε-divide input has %d zeros, more than n/2 = %d", n0, n/2)
	}

	// The greedy-left backward split hands dummy 0s to the first ne0 εs
	// in link order (see the package comment), so relabelling is a rank
	// cutoff over the ε plane: ε ranks below ne0 become ε0, the rest ε1.
	ne0 := ne - (n/2 - n1)
	copy(dst, tags)
	rank := 0
	for w := 0; w < n>>6; w++ {
		ew := pv.EpsWord(w)
		k := bits.OnesCount64(ew)
		var after uint64 // ε lanes of this word at rank >= ne0
		switch {
		case rank >= ne0:
			after = ew
		case rank+k <= ne0:
			after = 0
		default:
			after = ew
			for d := ne0 - rank; d > 0; d-- {
				after &= after - 1 // drop the lowest surviving ε lane
			}
		}
		if g != nil {
			g[w] = pv.OneWord(w) | after
		}
		base := w << 6
		for x := ew &^ after; x != 0; x &= x - 1 {
			dst[base+bits.TrailingZeros64(x)] = tag.Eps0
		}
		for x := after; x != 0; x &= x - 1 {
			dst[base+bits.TrailingZeros64(x)] = tag.Eps1
		}
		rank += k
	}
	return nil
}

// scatterInvalidInputError is the scatter leaf validation error of both
// the scalar and the packed sweep: the last offending index wins.
func scatterInvalidInputError(tags []tag.Value) error {
	idx, bad := -1, tag.Value(0)
	for i, v := range tags {
		if !v.Valid() {
			idx, bad = i, v
		}
	}
	return fmt.Errorf("rbn: input %d carries invalid tag %v", idx, bad)
}

// subSurplus returns the signed surplus v = #α − #ε of the level-lvl
// node idx for lvl < 6, from masked popcounts of the α and ε planes.
func subSurplus(pv *tag.PackedVec, lvl, idx int) int {
	start := idx << lvl
	w, sh := start>>6, uint(start)&63
	mask := uint64(1)<<(1<<lvl) - 1
	return bits.OnesCount64(pv.AlphaWord(w)>>sh&mask) -
		bits.OnesCount64(pv.EpsWord(w)>>sh&mask)
}

// packedScatter is ScatterPlanInto over the packed planes of tags. The
// scatterNode tree collapses to the signed per-node surplus v = #α − #ε:
// |v| is the scalar node's l, its sign the dominating type (v <= 0 is
// the canonical ε), and v is additive across children.
func packedScatter(p *Plan, tags []tag.Value, s int, sc *Scratch) error {
	n, m := p.N, p.M
	pv := &sc.pv
	if _, perr := pv.PackInto(tags); perr != nil {
		return scatterInvalidInputError(tags)
	}

	// Forward phase: materialize v at and above the word level, reusing
	// the ls rows (the bit-sort counts of a different call).
	vs := sc.ls
	for w := 0; w < n>>6; w++ {
		vs[6][w] = bits.OnesCount64(pv.AlphaWord(w)) - bits.OnesCount64(pv.EpsWord(w))
	}
	for j := 7; j <= m; j++ {
		prev, cur := vs[j-1], vs[j]
		for b := 0; b < n>>j; b++ {
			cur[b] = prev[2*b] + prev[2*b+1]
		}
	}

	// Backward phase: the scalar Lemma 1–5 dispatch per node, children's
	// (l, typ) decoded from their signed surpluses.
	ss := sc.ss
	ss[m][0] = s
	for j := m; j >= 1; j-- {
		h := 1 << (j - 1)
		col := p.Stages[j-1]
		cur := ss[j]
		for b := 0; b < n>>j; b++ {
			var v0, v1 int
			if j-1 >= 6 {
				v0, v1 = vs[j-1][2*b], vs[j-1][2*b+1]
			} else {
				v0, v1 = subSurplus(pv, j-1, 2*b), subSurplus(pv, j-1, 2*b+1)
			}
			sNode := cur[b]
			l0, l1 := v0, v1
			if l0 < 0 {
				l0 = -l0
			}
			if l1 < 0 {
				l1 = -l1
			}
			typ0Alpha := v0 > 0 // v == 0 is canonical ε
			typ1Alpha := v1 > 0
			if typ0Alpha == typ1Alpha {
				// ε/α-addition: Lemma 1 with l = l0 + l1.
				s1 := (sNode + l0) % h
				if j > 1 {
					ss[j-1][2*b] = sNode % h
					ss[j-1][2*b+1] = s1
				}
				fillHalves(col[b*h:b*h+h], s1, swbox.Setting(((sNode+l0)/h)%2))
				continue
			}
			// ε/α-elimination: Lemmas 2–5, exactly as the scalar sweep.
			lNode := v0 + v1
			if lNode < 0 {
				lNode = -lNode
			}
			var s0, s1 int
			var stmp, ltmp int
			var ucast swbox.Setting
			if l0 >= l1 {
				s0 = sNode % h
				s1 = (sNode + lNode) % h
				stmp, ltmp = s1, l1
				ucast = swbox.Parallel
			} else {
				s0 = (sNode + lNode) % h
				s1 = sNode % h
				stmp, ltmp = s0, l0
				ucast = swbox.Cross
			}
			if j > 1 {
				ss[j-1][2*b] = s0
				ss[j-1][2*b+1] = s1
			}
			var bcast swbox.Setting
			if typ0Alpha {
				bcast = swbox.UpperBcast
			} else {
				bcast = swbox.LowerBcast
			}
			dst := col[b*h : b*h+h]
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
