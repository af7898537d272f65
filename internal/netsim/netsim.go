// Package netsim is a cycle-level simulator for the flattened BRSMN
// fabric: it streams *waves* of multicast assignments through the switch
// columns, one column per cycle per wave, the way the paper's Section 7
// describes the hardware operating in a pipelined fashion. Successive
// assignments separated by one cycle occupy disjoint columns at every
// instant — each wave's switch settings travel with it — so after the
// pipeline fills, one complete multicast assignment is delivered every
// cycle, while a non-pipelined fabric would take a full network depth
// per assignment.
package netsim

import (
	"fmt"

	"brsmn/internal/bsn"
	"brsmn/internal/core"
	"brsmn/internal/fabric"
	"brsmn/internal/mcast"
	"brsmn/internal/swbox"
)

// Wave is one in-flight assignment: its column program, its cells, and
// its injection cycle.
type wave struct {
	assignment mcast.Assignment
	cols       []fabric.Column
	cells      []bsn.Cell
	inject     int
	done       bool
}

// Report is the outcome of a pipelined run.
type Report struct {
	N     int
	Depth int // columns per wave
	Waves int
	Gap   int // injection spacing in cycles
	// Makespan is the cycle at which the last wave completed.
	Makespan int
	// SequentialMakespan is what the same traffic would take without
	// pipelining (each assignment traverses the whole fabric alone).
	SequentialMakespan int
	// Deliveries[w][out] is the source delivered at output `out` by
	// wave w (-1 idle).
	Deliveries [][]int
	// MaxColumnsBusy is the peak number of columns active in one cycle
	// — the pipeline's achieved parallelism.
	MaxColumnsBusy int
	// Misdelivered counts outputs whose delivery differed from the
	// fault-free expectation. Always 0 for Pipeline, which fails on the
	// first mismatch; PipelineTampered reports instead of failing.
	Misdelivered int
}

// Speedup is the pipelining gain: sequential makespan over pipelined
// makespan.
func (r *Report) Speedup() float64 {
	if r.Makespan == 0 {
		return 0
	}
	return float64(r.SequentialMakespan) / float64(r.Makespan)
}

// Pipeline routes every assignment (all of the same size) through one
// shared fabric, injecting a new wave every `gap` cycles (gap >= 1), and
// simulates cycle by cycle. Every wave's deliveries are verified against
// its assignment. The per-cycle column occupancies are asserted
// disjoint: two waves never configure the same column at the same time.
func Pipeline(assignments []mcast.Assignment, gap int) (*Report, error) {
	return pipeline(assignments, gap, nil)
}

// PipelineTampered is Pipeline with a fault-injection hook applied to
// every wave's column executions (the column index handed to the
// Tamperer is the wave's own program position, matching the fault
// coordinates of the flattened program). Misdeliveries caused by the
// faults are counted in Report.Misdelivered rather than failing the
// run; a fault that strands a cell mid-hand-off still errors.
func PipelineTampered(assignments []mcast.Assignment, gap int, t fabric.Tamperer) (*Report, error) {
	return pipeline(assignments, gap, t)
}

func pipeline(assignments []mcast.Assignment, gap int, tamper fabric.Tamperer) (*Report, error) {
	if len(assignments) == 0 {
		return nil, fmt.Errorf("netsim: no assignments")
	}
	if gap < 1 {
		return nil, fmt.Errorf("netsim: injection gap %d must be >= 1", gap)
	}
	n := assignments[0].N
	nw, err := core.New(n)
	if err != nil {
		return nil, err
	}
	waves := make([]*wave, len(assignments))
	depth := 0
	for w, a := range assignments {
		if a.N != n {
			return nil, fmt.Errorf("netsim: assignment %d has size %d, want %d", w, a.N, n)
		}
		res, err := nw.Route(a)
		if err != nil {
			return nil, fmt.Errorf("netsim: assignment %d: %w", w, err)
		}
		cols, err := fabric.Flatten(res)
		if err != nil {
			return nil, err
		}
		cells, err := bsn.CellsForAssignment(a)
		if err != nil {
			return nil, err
		}
		waves[w] = &wave{assignment: a, cols: cols, cells: cells, inject: w * gap}
		depth = len(cols)
	}

	rep := &Report{
		N: n, Depth: depth, Waves: len(waves), Gap: gap,
		SequentialMakespan: len(waves) * depth,
		Deliveries:         make([][]int, len(waves)),
	}
	remaining := len(waves)
	for cycle := 0; remaining > 0; cycle++ {
		busy := map[int]int{} // column index -> wave id
		for wid, wv := range waves {
			if wv.done || cycle < wv.inject {
				continue
			}
			pos := cycle - wv.inject
			if pos >= depth {
				continue
			}
			if prev, clash := busy[pos]; clash {
				return nil, fmt.Errorf("netsim: cycle %d: waves %d and %d both occupy column %d", cycle, prev, wid, pos)
			}
			busy[pos] = wid
			col := wv.cols[pos]
			settings := col.Settings
			if tamper != nil {
				settings = tamper.TamperSettings(pos, settings)
				if len(settings) != n/2 {
					return nil, fmt.Errorf("netsim: tamperer changed column %d to %d settings", pos, len(settings))
				}
			}
			next := make([]bsn.Cell, n)
			for sw, s := range settings {
				p0, p1 := col.Pair(sw)
				next[p0], next[p1] = swbox.Apply(s, wv.cells[p0], wv.cells[p1], bsn.SplitCell)
			}
			wv.cells = next
			if tamper != nil {
				tamper.TamperCells(pos, wv.cells)
			}
			if col.AdvanceAfter {
				for i := range wv.cells {
					if wv.cells[i].IsIdle() {
						continue
					}
					adv, err := bsn.Advance(wv.cells[i])
					if err != nil {
						return nil, fmt.Errorf("netsim: wave %d column %d: %w", wid, pos, err)
					}
					wv.cells[i] = adv
				}
			}
			if pos == depth-1 {
				wv.done = true
				remaining--
				rep.Makespan = cycle + 1
				out := make([]int, n)
				owner := wv.assignment.OutputOwner()
				for p, c := range wv.cells {
					out[p] = -1
					if !c.IsIdle() {
						out[p] = c.Source
					}
					if out[p] != owner[p] {
						if tamper == nil {
							return nil, fmt.Errorf("netsim: wave %d output %d delivered %d, want %d", wid, p, out[p], owner[p])
						}
						rep.Misdelivered++
					}
				}
				rep.Deliveries[wid] = out
			}
		}
		if len(busy) > rep.MaxColumnsBusy {
			rep.MaxColumnsBusy = len(busy)
		}
	}
	return rep, nil
}
