// Package bsn implements the binary splitting network (BSN) of Yang &
// Wang (Sections 3 and 5): the level building block of the BRSMN. An
// n x n BSN is a scatter network followed by a quasisorting network, both
// reverse banyan networks. Fed with one routing-tag per input (the current
// level's tag: 0, 1, α or ε), it
//
//  1. splits every α connection into a 0-copy and a 1-copy by pairing the
//     α with an idle ε input at a broadcast switch (scatter, Theorem 2),
//  2. routes every 0-tagged connection to the upper half of its outputs
//     and every 1-tagged connection to the lower half (quasisort,
//     Section 5.2),
//
// so the two halves can be handed to two independent half-size networks.
package bsn

import (
	"fmt"

	"brsmn/internal/mcast"
	"brsmn/internal/rbn"
	"brsmn/internal/tag"
)

// Cell is the content of one network link: an idle placeholder or a
// (possibly split) multicast connection. Tag is the connection's tag for
// the current level; Seq is its remaining routing-tag sequence, whose
// head equals Tag for a cell entering a BSN. Payload travels untouched.
type Cell struct {
	Tag     tag.Value
	Source  int
	Seq     []tag.Value
	Payload any
}

// Idle returns an idle cell.
func Idle() Cell { return Cell{Tag: tag.Eps, Source: -1} }

// IsIdle reports whether the cell carries no connection.
func (c Cell) IsIdle() bool { return !c.Tag.CarriesMessage() }

// SplitCell is the broadcast transformation: the α connection is
// duplicated, the copy emerging on the switch's upper output tagged 0 and
// the lower copy tagged 1 (Fig. 3c/3d). Both copies keep the full
// remaining sequence; Advance later selects each copy's half.
func SplitCell(c Cell) (Cell, Cell) {
	up, low := c, c
	up.Tag = tag.V0
	low.Tag = tag.V1
	return up, low
}

// Advance consumes the head tag of a routed cell after it leaves a BSN:
// the remaining tags are dealt out alternately (Fig. 10) and the cell
// keeps the half selected by its exit tag — the upper subsequence for a
// 0-exit, the lower for a 1-exit. The resulting sequence drives the
// half-size network of the next level.
func Advance(c Cell) (Cell, error) { return AdvanceIn(c, nil) }

// Arena is a bump allocator for the routing-tag storage Advance creates
// at every level boundary. A steady serving loop (fabric.Executor) holds
// one Arena and resets it per run, turning the two-slices-per-live-cell
// allocation of Advance into amortized-zero allocations. Sequences
// handed out by an Arena are valid until its next Reset. The zero value
// is ready to use; an Arena is not safe for concurrent use.
type Arena struct {
	chunk []tag.Value
	used  int // bump pointer into the current chunk
	total int // tags handed out since the last Reset, across chunk growth
}

// Reset recycles all storage handed out since the last Reset.
func (ar *Arena) Reset() { ar.used, ar.total = 0, 0 }

// Cap returns the retained backing capacity in tag values — the arena's
// contribution to a long-lived planner's memory footprint.
func (ar *Arena) Cap() int { return len(ar.chunk) }

// Used returns the tag values handed out since the last Reset. Unlike
// the internal bump pointer it survives chunk growth, so it measures a
// reset cycle's true demand — the signal pool retention policies decay.
func (ar *Arena) Used() int { return ar.total }

// Release drops the retained backing chunk entirely, so the next Alloc
// regrows from actual need — the shrink path for pools that kept a
// high-water arena past its workload.
func (ar *Arena) Release() { ar.chunk = nil; ar.used = 0; ar.total = 0 }

// Alloc returns a clean k-element block valid until the arena's next
// Reset. It is the building block for callers (the core planner) that
// bump-allocate tag storage outside AdvanceIn.
func (ar *Arena) Alloc(k int) []tag.Value { return ar.alloc(k) }

// MinChunk is the smallest backing chunk an arena grows to — the
// per-arena floor of a planner's retained footprint, which memory
// accounting (core's pool retention policy) builds its baseline from.
const MinChunk = 1024

// alloc returns a clean k-element block, growing the backing chunk when
// exhausted (abandoned chunks are reclaimed by the GC).
func (ar *Arena) alloc(k int) []tag.Value {
	if ar.used+k > len(ar.chunk) {
		size := 2 * len(ar.chunk)
		if size < MinChunk {
			size = MinChunk
		}
		if size < k {
			size = k
		}
		ar.chunk = make([]tag.Value, size)
		ar.used = 0
	}
	b := ar.chunk[ar.used : ar.used+k : ar.used+k]
	ar.used += k
	ar.total += k
	return b
}

// AdvanceIn is Advance with the split sequences sub-allocated from ar;
// a nil ar allocates fresh storage (one slice per call).
func AdvanceIn(c Cell, ar *Arena) (Cell, error) {
	if c.IsIdle() {
		return c, nil
	}
	if len(c.Seq) < 3 || len(c.Seq)%2 == 0 {
		return Cell{}, fmt.Errorf("bsn: cannot advance a cell with %d remaining tags", len(c.Seq))
	}
	rest := c.Seq[1:]
	h := len(rest) / 2
	var block []tag.Value
	if ar != nil {
		block = ar.alloc(len(rest))
	} else {
		block = make([]tag.Value, len(rest))
	}
	up, low := block[:h:h], block[h:]
	for i, v := range rest {
		if i%2 == 0 {
			up[i/2] = v
		} else {
			low[i/2] = v
		}
	}
	switch c.Tag {
	case tag.V0:
		c.Seq = up
	case tag.V1:
		c.Seq = low
	default:
		return Cell{}, fmt.Errorf("bsn: cell leaves BSN with tag %v; want 0 or 1", c.Tag)
	}
	c.Tag = c.Seq[0]
	return c, nil
}

// Result holds the outcome of routing one tag vector through a BSN: the
// output cells and the two computed reverse-banyan plans (for cost,
// timing and diagram purposes). Divided is the ε-divided tag vector the
// quasisorting pass sorted.
type Result struct {
	N       int
	Out     []Cell
	Scatter *rbn.Plan
	Quasi   *rbn.Plan
	Divided []tag.Value
}

// Route drives n cells through an n x n binary splitting network. The
// head tags must satisfy the BSN input constraints (equations 1–3):
// at most n/2 connections destined (fully or partly) to each half.
func Route(in []Cell) (*Result, error) {
	n := len(in)
	tags := make([]tag.Value, n)
	for i, c := range in {
		if c.Tag.CarriesMessage() && (len(c.Seq) == 0 || c.Seq[0] != c.Tag) {
			return nil, fmt.Errorf("bsn: cell %d has tag %v but sequence head %v", i, c.Tag, headOf(c.Seq))
		}
		if c.IsIdle() {
			tags[i] = tag.Eps
		} else {
			tags[i] = c.Tag
		}
	}
	if err := tag.Count(tags).CheckBSNInput(n); err != nil {
		return nil, err
	}

	// Pass 1: scatter — eliminate αs.
	sp, err := rbn.ScatterPlan(n, tags, 0)
	if err != nil {
		return nil, err
	}
	mid, err := rbn.Apply(sp, in, SplitCell)
	if err != nil {
		return nil, err
	}
	midTags := make([]tag.Value, n)
	for i, c := range mid {
		if c.Tag == tag.Alpha {
			return nil, fmt.Errorf("bsn: α survived the scatter network at position %d", i)
		}
		if c.IsIdle() {
			midTags[i] = tag.Eps
		} else {
			midTags[i] = c.Tag
		}
	}

	// Pass 2: quasisort — 0s to the upper half, 1s to the lower half.
	qp, divided, err := rbn.QuasisortPlan(n, midTags)
	if err != nil {
		return nil, err
	}
	out, err := rbn.Apply(qp, mid, nil)
	if err != nil {
		return nil, err
	}
	for i, c := range out {
		if c.Tag == tag.V0 && i >= n/2 {
			return nil, fmt.Errorf("bsn: 0-tagged connection from input %d quasisorted to lower-half output %d", c.Source, i)
		}
		if c.Tag == tag.V1 && i < n/2 {
			return nil, fmt.Errorf("bsn: 1-tagged connection from input %d quasisorted to upper-half output %d", c.Source, i)
		}
	}
	return &Result{N: n, Out: out, Scatter: sp, Quasi: qp, Divided: divided}, nil
}

func headOf(s []tag.Value) tag.Value {
	if len(s) == 0 {
		return tag.Eps
	}
	return s[0]
}

// CellsForAssignment prepares the input cell vector of the outermost BSN
// of an n x n BRSMN: each active input carries its full routing-tag
// sequence (Section 7.1) with the level-1 tag at the head.
func CellsForAssignment(a mcast.Assignment) ([]Cell, error) {
	seqs, err := a.Sequences()
	if err != nil {
		return nil, err
	}
	cells := make([]Cell, a.N)
	for i := range cells {
		if len(a.Dests[i]) == 0 {
			cells[i] = Idle()
			continue
		}
		cells[i] = Cell{Tag: seqs[i][0], Source: i, Seq: seqs[i]}
	}
	return cells, nil
}
