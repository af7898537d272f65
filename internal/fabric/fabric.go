// Package fabric is the physical, wiring-level view of the networks: it
// builds the merging stages from the shuffle/exchange wiring functions of
// Figs. 6–7 (rather than the logical pair model the algorithms are stated
// in), executes switch plans on that wiring, and checks link occupancy —
// each wire carries at most one message per pass, the edge-disjointness
// the multicast trees are claimed to have.
//
// The package also flattens a fully routed BRSMN (its per-level BSN plans
// plus the delivery column) into one linear column program, which is what
// the pipelined simulator (package netsim) runs waves of assignments
// through.
package fabric

import (
	"fmt"

	"brsmn/internal/bsn"
	"brsmn/internal/core"
	"brsmn/internal/rbn"
	"brsmn/internal/shuffle"
	"brsmn/internal/swbox"
)

// Stage is one physical switch column of an RBN: the sub-block size its
// merging networks operate on, and for every switch its two attached link
// indices on the input and output side, derived from the wiring function.
type Stage struct {
	BlockSize int
	// Port[t][k] is the network link attached to port k of physical
	// switch t (the same link index on the input and output side — the
	// merging network is wired symmetrically).
	Port [][2]int
}

// BuildRBN constructs the physical stages of an n x n reverse banyan
// network from the wiring functions: stage j consists of the merging
// networks of all sub-RBNs of size 2^(j+1); within a block, switch port a
// attaches to block link Wire(blockSize, a).
func BuildRBN(n int) ([]Stage, error) {
	if !shuffle.IsPow2(n) || n < 2 {
		return nil, fmt.Errorf("fabric: size %d is not a power of two >= 2", n)
	}
	m := shuffle.Log2(n)
	stages := make([]Stage, m)
	for j := 0; j < m; j++ {
		size := 1 << (j + 1)
		st := Stage{BlockSize: size, Port: make([][2]int, n/2)}
		for block := 0; block < n/size; block++ {
			base := block * size
			for t := 0; t < size/2; t++ {
				a0, a1 := 2*t, 2*t+1
				st.Port[base/2+t] = [2]int{
					base + shuffle.Wire(size, a0),
					base + shuffle.Wire(size, a1),
				}
			}
		}
		stages[j] = st
	}
	return stages, nil
}

// VerifyAgainstPairModel checks that the physical wiring reproduces the
// logical pair model the setting algorithms use: physical switch w of
// stage j must join exactly the links rbn.Plan.Pair(j, w) reports, with
// the upper link on port 0.
func VerifyAgainstPairModel(n int) error {
	stages, err := BuildRBN(n)
	if err != nil {
		return err
	}
	p := rbn.NewPlan(n)
	for j, st := range stages {
		for w, ports := range st.Port {
			p0, p1 := p.Pair(j, w)
			if ports[0] != p0 || ports[1] != p1 {
				return fmt.Errorf("fabric: stage %d switch %d wired to (%d,%d); pair model says (%d,%d)",
					j, w, ports[0], ports[1], p0, p1)
			}
		}
	}
	return nil
}

// Apply executes an rbn.Plan on the physical wiring with message
// conservation checking. Every link has exactly one driving switch, so a
// link can never carry two messages (edge-disjointness is structural);
// what a corrupted plan *can* do is drop a message — a broadcast setting
// discards one of its inputs. Apply returns an error whenever a
// broadcast would discard a live message, so message conservation holds
// on every return. occupied reports whether an item is a live message;
// pass nil to skip the check.
func Apply[T any](p *rbn.Plan, in []T, split func(T) (T, T), occupied func(T) bool) ([]T, error) {
	stages, err := BuildRBN(p.N)
	if err != nil {
		return nil, err
	}
	if len(in) != p.N {
		return nil, fmt.Errorf("fabric: %d inputs for a %d x %d network", len(in), p.N, p.N)
	}
	cur := append([]T(nil), in...)
	for j, st := range stages {
		next := make([]T, p.N)
		for t, ports := range st.Port {
			s := p.Stages[j][t]
			if s.IsBroadcast() {
				if split == nil {
					return nil, fmt.Errorf("fabric: stage %d switch %d is %v with no split function", j, t, s)
				}
				discarded := ports[1]
				if s == swbox.LowerBcast {
					discarded = ports[0]
				}
				if occupied != nil && occupied(cur[discarded]) {
					return nil, fmt.Errorf("fabric: stage %d switch %d (%v) discards the live message on link %d",
						j, t, s, discarded)
				}
			}
			o0, o1 := swbox.Apply(s, cur[ports[0]], cur[ports[1]], split)
			next[ports[0]], next[ports[1]] = o0, o1
		}
		cur = next
	}
	return cur, nil
}

// ColumnKind labels what a flattened column belongs to, for rendering
// and accounting.
type ColumnKind uint8

const (
	// ColScatter is a column of a level's scatter RBNs.
	ColScatter ColumnKind = iota
	// ColQuasisort is a column of a level's quasisorting RBNs.
	ColQuasisort
	// ColDeliver is the final 2x2 delivery column.
	ColDeliver
)

// String implements fmt.Stringer.
func (k ColumnKind) String() string {
	switch k {
	case ColScatter:
		return "scatter"
	case ColQuasisort:
		return "quasisort"
	case ColDeliver:
		return "deliver"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Column is one switch column of the flattened BRSMN: n/2 settings plus
// the block size its pair wiring uses and the level it came from.
type Column struct {
	Kind      ColumnKind
	Level     int
	BlockSize int // pair wiring: switch w joins links base+i, base+i+BlockSize/2
	Settings  []swbox.Setting
	// AdvanceAfter marks the level boundary: cells must consume one
	// routing tag after this column (the BSN hand-off of Fig. 10).
	AdvanceAfter bool
}

// Pair returns the two links joined by switch w of this column.
func (c Column) Pair(w int) (int, int) {
	h := c.BlockSize / 2
	b := w / h
	i := w % h
	base := b * c.BlockSize
	return base + i, base + i + h
}

// SwitchFor returns the switch of this column that drives/consumes the
// given link — the inverse of Pair.
func (c Column) SwitchFor(link int) int {
	h := c.BlockSize / 2
	b := link / c.BlockSize
	i := link % c.BlockSize
	if i >= h {
		i -= h
	}
	return b*h + i
}

// Flatten converts a routed BRSMN result into its linear column program:
// for each level in order, the scatter stages then the quasisort stages
// of all the level's BSNs (side by side), then the delivery column. The
// result has exactly cost.BRSMNDepth(n) columns, whose settings are
// carved from one backing array.
func Flatten(res *core.Result) ([]Column, error) {
	n := res.N
	if !shuffle.IsPow2(n) || n < 2 {
		return nil, fmt.Errorf("fabric: result size %d is not a power of two >= 2", n)
	}
	// size[level] is the BSN size of a level, that of its first plan.
	// Levels run from 1 to log2(n) - 1, and n fits in 32 bits.
	var size [33]int
	maxLevel := 0
	for _, lp := range res.Plans {
		if lp.Level < 1 {
			continue
		}
		if lp.Level >= len(size) {
			return nil, fmt.Errorf("fabric: BSN plan at level %d of an n=%d result", lp.Level, n)
		}
		if size[lp.Level] == 0 {
			size[lp.Level] = lp.Size
		}
		maxLevel = max(maxLevel, lp.Level)
	}
	depth := 1
	for level := 1; level <= maxLevel; level++ {
		if size[level] == 0 {
			return nil, fmt.Errorf("fabric: no BSN plans at level %d", level)
		}
		depth += 2 * shuffle.Log2(size[level])
	}
	h := n / 2
	if len(res.Final) != h {
		return nil, fmt.Errorf("fabric: %d final settings for n=%d", len(res.Final), n)
	}
	backing := make([]swbox.Setting, depth*h)
	cols := make([]Column, depth)
	for ci := range cols {
		cols[ci].Settings = backing[ci*h : (ci+1)*h : (ci+1)*h]
	}
	ci := 0
	for level := 1; level <= maxLevel; level++ {
		stagesPer := shuffle.Log2(size[level])
		scatter := cols[ci : ci+stagesPer]
		quasi := cols[ci+stagesPer : ci+2*stagesPer]
		for j := 0; j < stagesPer; j++ {
			scatter[j].Kind, scatter[j].Level, scatter[j].BlockSize = ColScatter, level, 1<<(j+1)
			quasi[j].Kind, quasi[j].Level, quasi[j].BlockSize = ColQuasisort, level, 1<<(j+1)
		}
		for _, lp := range res.Plans {
			if lp.Level != level {
				continue
			}
			lo, hi := lp.Base/2, lp.Base/2+size[level]/2
			for j := 0; j < stagesPer; j++ {
				copy(scatter[j].Settings[lo:hi], lp.Scatter.Stages[j])
				copy(quasi[j].Settings[lo:hi], lp.Quasi.Stages[j])
			}
		}
		ci += 2 * stagesPer
		cols[ci-1].AdvanceAfter = true
	}
	last := &cols[ci]
	last.Kind, last.Level, last.BlockSize = ColDeliver, maxLevel+1, 2
	copy(last.Settings, res.Final)
	return cols, nil
}

// Run executes a flattened column program on a cell vector, performing
// the per-level tag hand-off at level boundaries, and returns the final
// cells (one per output). Each switch drives its two links exactly once
// per column, so link occupancy is single-writer by construction here;
// Apply performs the explicit occupancy assertion on the unflattened
// wiring. Run allocates its result; the hot serving path should hold an
// Executor and call its Run method instead, which reuses buffers across
// calls.
func Run(cols []Column, in []bsn.Cell) ([]bsn.Cell, error) {
	return new(Executor).Run(cols, in)
}

// Tamperer mutates a column program's execution in flight — the fault-
// injection hook the faultd subsystem uses to model stuck switches and
// dead links without forking the execution loop. Implementations must
// not retain the slices they are handed.
type Tamperer interface {
	// TamperSettings may substitute the settings a column executes with.
	// The returned slice must have the same length; return s unchanged
	// when column ci carries no fault.
	TamperSettings(ci int, s []swbox.Setting) []swbox.Setting
	// TamperCells mutates the live cell vector right after column ci
	// executes (before the level-boundary tag hand-off).
	TamperCells(ci int, cells []bsn.Cell)
}

// Executor runs flattened column programs while reusing two internal
// cell buffers plus a routing-tag arena across calls, so a steady
// serving loop performs zero per-column (and, once warm, zero per-run)
// allocations. The returned slice and the tag sequences of its cells
// alias internal storage and are valid until the next call. An Executor
// is not safe for concurrent use.
type Executor struct {
	cur, next []bsn.Cell
	arena     bsn.Arena
}

// Run executes the program like the package-level Run, against the
// executor's reusable buffers.
func (e *Executor) Run(cols []Column, in []bsn.Cell) ([]bsn.Cell, error) {
	return e.RunTampered(cols, in, nil)
}

// RunTampered executes the program with a fault-injection hook applied
// at every column; t may be nil for a fault-free run.
func (e *Executor) RunTampered(cols []Column, in []bsn.Cell, t Tamperer) ([]bsn.Cell, error) {
	n := len(in)
	if cap(e.cur) < n {
		e.cur = make([]bsn.Cell, n)
		e.next = make([]bsn.Cell, n)
	}
	e.cur, e.next = e.cur[:n], e.next[:n]
	e.arena.Reset()
	copy(e.cur, in)
	for ci, col := range cols {
		if len(col.Settings) != n/2 {
			return nil, fmt.Errorf("fabric: column %d has %d settings for n=%d", ci, len(col.Settings), n)
		}
		settings := col.Settings
		if t != nil {
			settings = t.TamperSettings(ci, settings)
			if len(settings) != n/2 {
				return nil, fmt.Errorf("fabric: tamperer changed column %d to %d settings", ci, len(settings))
			}
		}
		for w, s := range settings {
			p0, p1 := col.Pair(w)
			e.next[p0], e.next[p1] = swbox.Apply(s, e.cur[p0], e.cur[p1], bsn.SplitCell)
		}
		e.cur, e.next = e.next, e.cur
		if t != nil {
			t.TamperCells(ci, e.cur)
		}
		if col.AdvanceAfter {
			for i := range e.cur {
				if e.cur[i].IsIdle() {
					continue
				}
				adv, err := bsn.AdvanceIn(e.cur[i], &e.arena)
				if err != nil {
					return nil, fmt.Errorf("fabric: column %d advance: %w", ci, err)
				}
				e.cur[i] = adv
			}
		}
	}
	return e.cur, nil
}
