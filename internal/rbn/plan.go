// Package rbn implements the reverse banyan network (RBN) of Yang & Wang
// (Section 4) and the three distributed self-routing switch-setting
// algorithms that run on it:
//
//   - bit sorting (Table 3, Lemma 1 / Theorem 1),
//   - scattering, which eliminates α tags by pairing each with an ε via
//     broadcast switches (Table 4 + Table 5, Lemmas 1–5, Theorems 2–3),
//   - ε-dividing, which relabels idle inputs as dummy 0s/1s so a plain
//     bit-sorting pass quasisorts a partial assignment (Table 6).
//
// An n x n RBN is two n/2 x n/2 RBNs followed by a perfect-shuffle merging
// stage of n/2 switches (Fig. 5). Unrolled, the network is log2(n) columns
// of n/2 switches; column j (0-based) holds the merging stages of all
// sub-RBNs of size 2^(j+1). Switch w of column j belongs to the sub-RBN
// covering links [b*2^(j+1), (b+1)*2^(j+1)) with b = w / 2^j, and joins
// the link pair {base+i, base+i+2^j} with i = w mod 2^j — the logical pair
// model of the merging network (see package shuffle for the equivalence
// with the physical perfect-shuffle wiring).
package rbn

import (
	"fmt"

	"brsmn/internal/shuffle"
	"brsmn/internal/swbox"
	"brsmn/internal/tag"
)

// Plan is a fully computed switch setting for an n x n reverse banyan
// network: Stages[j][w] is the setting of switch w in column j. A zero
// setting is Parallel, so a freshly allocated Plan routes every input
// straight through.
type Plan struct {
	N      int
	M      int // log2(N): number of stages
	Stages [][]swbox.Setting
}

// NewPlan allocates an all-parallel plan for an n x n RBN (n a power of
// two, n >= 2). The stage columns share one flat backing array, so a
// plan costs three allocations regardless of depth.
func NewPlan(n int) *Plan {
	if !shuffle.IsPow2(n) || n < 2 {
		panic(fmt.Sprintf("rbn: network size %d is not a power of two >= 2", n))
	}
	m := shuffle.Log2(n)
	flat := make([]swbox.Setting, m*(n/2))
	st := make([][]swbox.Setting, m)
	for j := range st {
		st[j] = flat[j*(n/2) : (j+1)*(n/2) : (j+1)*(n/2)]
	}
	return &Plan{N: n, M: m, Stages: st}
}

// Pair returns the two link positions joined by switch w of column j.
func (p *Plan) Pair(j, w int) (p0, p1 int) {
	p0 = (w>>j)<<(j+1) | w&(1<<j-1)
	return p0, p0 + 1<<j
}

// SwitchIndex returns the column-j switch index joining positions
// base+i and base+i+2^j for the sub-RBN block starting at link `base`.
func (p *Plan) SwitchIndex(j, base, i int) int {
	return base/2 + i // block b = base / 2^(j+1); w = b*2^j + i = base/2 + i
}

// NumSwitches returns the total switch count, (n/2) * log2(n).
func (p *Plan) NumSwitches() int { return p.N / 2 * p.M }

// CountSettings tallies how many switches hold each setting.
func (p *Plan) CountSettings() [swbox.NumSettings]int {
	var c [swbox.NumSettings]int
	for _, col := range p.Stages {
		for _, s := range col {
			c[s]++
		}
	}
	return c
}

// Validate checks structural consistency of the plan.
func (p *Plan) Validate() error {
	if !shuffle.IsPow2(p.N) || p.N < 2 {
		return fmt.Errorf("rbn: plan size %d is not a power of two >= 2", p.N)
	}
	if p.M != shuffle.Log2(p.N) {
		return fmt.Errorf("rbn: plan has M = %d, want log2(%d) = %d", p.M, p.N, shuffle.Log2(p.N))
	}
	if len(p.Stages) != p.M {
		return fmt.Errorf("rbn: plan has %d stages, want %d", len(p.Stages), p.M)
	}
	for j, col := range p.Stages {
		if len(col) != p.N/2 {
			return fmt.Errorf("rbn: stage %d has %d switches, want %d", j, len(col), p.N/2)
		}
		for w, s := range col {
			if !s.Valid() {
				return fmt.Errorf("rbn: stage %d switch %d has invalid setting %d", j, w, uint8(s))
			}
		}
	}
	return nil
}

// Apply routes a vector of items through the planned network, one column
// at a time. For broadcast switches, split is called on the broadcast
// source to produce the two output copies (output-0 copy first); the
// discarded input is dropped. split may be nil only if the plan contains
// no broadcast settings.
func Apply[T any](p *Plan, in []T, split func(T) (T, T)) ([]T, error) {
	return ApplyScratch(p, in, make([]T, p.N), split)
}

// ApplyScratch is Apply routing through the caller-provided buffer buf
// (of length p.N), which it returns: a steady loop performs no per-call
// allocation. The switches of one column join disjoint link pairs, so
// every column is applied to buf in place. in may itself be buf (the
// output of a previous ApplyScratch), in which case the copy is skipped
// and in is overwritten.
func ApplyScratch[T any](p *Plan, in, buf []T, split func(T) (T, T)) ([]T, error) {
	if len(in) != p.N {
		return nil, fmt.Errorf("rbn: %d inputs for an %d x %d network", len(in), p.N, p.N)
	}
	if len(buf) != p.N {
		return nil, fmt.Errorf("rbn: scratch buffer of length %d for an %d x %d network", len(buf), p.N, p.N)
	}
	if &in[0] != &buf[0] {
		copy(buf, in)
	}
	other := splitter(split)
	for j, col := range p.Stages {
		if err := applyColumn(col, j, buf, other); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// splitter returns the broadcast handler of Apply, ApplyScratch and
// Trace: split realizes a broadcast, and a broadcast with no split
// function is an error.
func splitter[T any](split func(T) (T, T)) func(j, w int, s swbox.Setting, x0, x1 T) (T, T, error) {
	return func(j, w int, s swbox.Setting, x0, x1 T) (T, T, error) {
		if s.IsBroadcast() && split == nil {
			var zero T
			return zero, zero, fmt.Errorf("rbn: stage %d switch %d is %v but no split function given", j, w, s)
		}
		o0, o1 := swbox.Apply(s, x0, x1, split)
		return o0, o1, nil
	}
}

// applyColumn applies column j to x in place. Switch w joins links
// p0 = 2w − i and p0 + h, with h = 2^j and i = w mod h (Pair's model;
// h is a power of two, so the mod is a mask). Parallel switches leave
// their links as they are and crossings swap them; every other setting
// goes to other, which returns the switch's two outputs.
func applyColumn[T any](col []swbox.Setting, j int, x []T, other func(j, w int, s swbox.Setting, x0, x1 T) (T, T, error)) error {
	h := 1 << j
	mask := h - 1
	for w, s := range col {
		if s == swbox.Parallel {
			continue
		}
		p0 := 2*w - w&mask
		p1 := p0 + h
		if s == swbox.Cross {
			x[p0], x[p1] = x[p1], x[p0]
			continue
		}
		o0, o1, err := other(j, w, s, x[p0], x[p1])
		if err != nil {
			return err
		}
		x[p0], x[p1] = o0, o1
	}
	return nil
}

// ApplyTags routes tag values through the planned network, enforcing the
// legality rules of Fig. 3 at every switch (broadcasts require an (α, ε)
// input pair). It returns the output tag vector.
func ApplyTags(p *Plan, in []tag.Value) ([]tag.Value, error) {
	if len(in) != p.N {
		return nil, fmt.Errorf("rbn: %d input tags for an %d x %d network", len(in), p.N, p.N)
	}
	cur := append([]tag.Value(nil), in...)
	for j, col := range p.Stages {
		if err := applyColumn(col, j, cur, checkTags); err != nil {
			return nil, err
		}
	}
	return cur, nil
}

// checkTags is ApplyTags' handler for broadcast and invalid settings.
func checkTags(j, w int, s swbox.Setting, x0, x1 tag.Value) (tag.Value, tag.Value, error) {
	o0, o1, err := swbox.ApplyTags(s, x0, x1)
	if err != nil {
		return 0, 0, fmt.Errorf("rbn: stage %d switch %d: %w", j, w, err)
	}
	return o0, o1, nil
}

// Trace is like Apply but records the item vector after every stage
// (Trace[0] is the input, Trace[M] the output). It is used by the diagram
// renderer and by edge-disjointness checks.
func Trace[T any](p *Plan, in []T, split func(T) (T, T)) ([][]T, error) {
	if len(in) != p.N {
		return nil, fmt.Errorf("rbn: %d inputs for an %d x %d network", len(in), p.N, p.N)
	}
	out := make([][]T, 0, p.M+1)
	cur := append([]T(nil), in...)
	out = append(out, cur)
	other := splitter(split)
	for j, col := range p.Stages {
		cur = append([]T(nil), cur...)
		if err := applyColumn(col, j, cur, other); err != nil {
			return nil, err
		}
		out = append(out, cur)
	}
	return out, nil
}
