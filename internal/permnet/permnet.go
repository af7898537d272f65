// Package permnet implements the self-routing permutation network that
// the BRSMN degenerates to on unicast traffic — the design of Cheng &
// Chen [14] that the paper builds on. For a (partial) permutation no tag
// is ever α, so the scatter pass of every binary splitting network is
// unnecessary: each level needs only an ε-divide + bit-sorting pass on
// the current destination bit. The network is therefore half the BRSMN's
// cost — the ablation quantified in the benchmarks.
package permnet

import (
	"fmt"

	"brsmn/internal/rbn"
	"brsmn/internal/shuffle"
	"brsmn/internal/tag"
)

// Result records a routed permutation: per-output sources and the
// composed reverse-banyan plan of each level (level k reconfigures
// stages [0, log2(n)-k) of the level's blocks).
type Result struct {
	N         int
	OutSource []int
	Levels    []*rbn.Plan
}

// item is a routed connection.
type item struct {
	src, dest int // dest < 0 marks an idle slot
}

// Route realizes a (partial) permutation: perm[i] is the destination of
// input i or negative for idle. It returns the per-output sources
// (OutSource[d] = i iff perm[i] = d) after verifying them.
func Route(perm []int) (*Result, error) {
	n := len(perm)
	if !shuffle.IsPow2(n) || n < 2 {
		return nil, fmt.Errorf("permnet: size %d is not a power of two >= 2", n)
	}
	m := shuffle.Log2(n)
	seen := make([]bool, n)
	items := make([]item, n)
	for i, d := range perm {
		if d < 0 {
			items[i] = item{src: -1, dest: -1}
			continue
		}
		if d >= n {
			return nil, fmt.Errorf("permnet: input %d destination %d out of range", i, d)
		}
		if seen[d] {
			return nil, fmt.Errorf("permnet: destination %d assigned twice", d)
		}
		seen[d] = true
		items[i] = item{src: i, dest: d}
	}

	res := &Result{N: n, OutSource: make([]int, n)}
	for k := 0; k < m; k++ {
		size := n >> k
		bit := m - 1 - k
		full := rbn.NewPlan(n)
		for off := 0; off < n; off += size {
			blockTags := make([]tag.Value, size)
			for i, it := range items[off : off+size] {
				switch {
				case it.dest < 0:
					blockTags[i] = tag.Eps
				case it.dest>>bit&1 == 0:
					blockTags[i] = tag.V0
				default:
					blockTags[i] = tag.V1
				}
			}
			sub, _, err := rbn.QuasisortPlan(size, blockTags)
			if err != nil {
				return nil, fmt.Errorf("permnet: level %d block %d: %w", k, off/size, err)
			}
			for j := 0; j < sub.M; j++ {
				copy(full.Stages[j][off/2:off/2+size/2], sub.Stages[j])
			}
		}
		var err error
		items, err = rbn.Apply(full, items, nil)
		if err != nil {
			return nil, err
		}
		res.Levels = append(res.Levels, full)
	}

	for p, it := range items {
		if it.dest < 0 {
			res.OutSource[p] = -1
			continue
		}
		if it.dest != p {
			return nil, fmt.Errorf("permnet: connection %d -> %d emerged at output %d", it.src, it.dest, p)
		}
		res.OutSource[p] = it.src
	}
	return res, nil
}

// Switches returns the permutation network's hardware: one quasisorting
// RBN per level, Σ_k (n/2) log2(n/2^k) switches — about half the full
// BRSMN's, since no scatter networks are needed.
func Switches(n int) int {
	total := 0
	// Level with blocks of this size uses (n/size) blocks of
	// (size/2)·log2(size) switches each.
	for size := n; size >= 2; size /= 2 {
		total += (n / size) * (size / 2) * shuffle.Log2(size)
	}
	return total
}
