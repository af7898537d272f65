package feedback

import (
	"fmt"

	"brsmn/internal/bsn"
	"brsmn/internal/core"
	"brsmn/internal/mcast"
	"brsmn/internal/rbn"
	"brsmn/internal/shuffle"
	"brsmn/internal/tag"
)

// Planner routes assignments through the feedback network against
// retained storage, mirroring core.Planner's zero-allocation discipline:
// the 2 log2(n) - 1 pass plans, the per-block sub-plans, the ping-pong
// cell buffers, the sweep scratch and the routing-tag arena all live on
// the Planner and are recycled across routes, so a steady loop routing
// same-size assignments performs no per-pass allocations.
//
// The Result a Planner returns aliases that storage (its Deliveries and
// Passes are overwritten by the next route); callers that retain results
// use Result.Clone or Network.Route. A Planner is not safe for
// concurrent use; Network shares planners across goroutines.
type Planner struct {
	n int
	m int

	// passes holds the retained full-size plan of every pass, in pass
	// order: scatter+quasisort per level (sizes n, n/2, ..., 4), then
	// the delivery pass. A pass index always reruns the same block
	// size, so the stages above a pass's block range stay the parallel
	// identity NewPlan initialized them to.
	passes []*rbn.Plan
	// subs[k] is the reusable block plan for the level with blocks of
	// size n >> k (k >= 1; the k = 0 level plans directly into the
	// full-size pass plan).
	subs []*rbn.Plan

	cells      []bsn.Cell // every pass applies its settings here in place
	blockTags  []tag.Value
	divided    []tag.Value
	sc         *rbn.Scratch
	seqb       mcast.SeqBuilder
	arena      bsn.Arena
	deliveries []core.Delivery
	owner      []int
	res        Result
}

// NewPlanner returns a reusable planner for an n x n feedback network.
func NewPlanner(n int) (*Planner, error) {
	if !shuffle.IsPow2(n) || n < 2 {
		return nil, fmt.Errorf("feedback: network size %d is not a power of two >= 2", n)
	}
	m := shuffle.Log2(n)
	p := &Planner{n: n, m: m}
	for size := n; size > 2; size /= 2 {
		p.passes = append(p.passes, rbn.NewPlan(n), rbn.NewPlan(n))
	}
	p.passes = append(p.passes, rbn.NewPlan(n))
	p.subs = make([]*rbn.Plan, m)
	for k := 1; k < m; k++ {
		if size := n >> k; size > 2 {
			p.subs[k] = rbn.NewPlan(size)
		}
	}
	p.cells = make([]bsn.Cell, n)
	p.blockTags = make([]tag.Value, n)
	p.divided = make([]tag.Value, n)
	p.sc = rbn.NewScratch(n)
	p.deliveries = make([]core.Delivery, n)
	p.owner = make([]int, n)
	return p, nil
}

// N returns the network size the planner serves.
func (p *Planner) N() int { return p.n }

// NumPasses returns how many trips through the RBN every routing takes:
// 2 log2(n) - 1.
func (p *Planner) NumPasses() int { return len(p.passes) }

// Route realizes a multicast assignment and verifies the deliveries.
// The returned Result aliases the planner's retained storage and is
// valid until the next route.
func (p *Planner) Route(a mcast.Assignment) (*Result, error) {
	return p.RouteWithPayloads(a, nil)
}

// RouteWithPayloads is Route with payloads attached to the connections.
func (p *Planner) RouteWithPayloads(a mcast.Assignment, payloads []any) (*Result, error) {
	n := p.n
	if a.N != n {
		return nil, fmt.Errorf("feedback: assignment for %d inputs on a %d x %d network", a.N, n, n)
	}
	if err := a.OwnerInto(p.owner); err != nil {
		return nil, err
	}
	if payloads != nil && len(payloads) != n {
		return nil, fmt.Errorf("feedback: %d payloads for %d inputs", len(payloads), n)
	}
	p.arena.Reset()
	cells := p.cells
	for i := 0; i < n; i++ {
		if len(a.Dests[i]) == 0 {
			cells[i] = bsn.Idle()
			continue
		}
		seq, err := p.seqb.AppendFromDests(p.arena.Alloc(n - 1)[:0], n, a.Dests[i])
		if err != nil {
			return nil, err
		}
		c := bsn.Cell{Tag: seq[0], Source: i, Seq: seq}
		if payloads != nil {
			c.Payload = payloads[i]
		}
		cells[i] = c
	}

	pi := 0
	for size := n; size > 2; size /= 2 {
		// Scatter pass: configure stages [0, log2(size)) per block.
		sp := p.passes[pi]
		pi++
		if err := p.levelPass(sp, size, cells, true); err != nil {
			return nil, err
		}
		var err error
		cells, err = rbn.ApplyScratch(sp, cells, p.cells, bsn.SplitCell)
		if err != nil {
			return nil, err
		}
		for i, c := range cells {
			if c.Tag == tag.Alpha {
				return nil, fmt.Errorf("feedback: α survived the size-%d scatter pass at position %d", size, i)
			}
		}

		// Quasisort pass.
		qp := p.passes[pi]
		pi++
		if err := p.levelPass(qp, size, cells, false); err != nil {
			return nil, err
		}
		cells, err = rbn.ApplyScratch(qp, cells, p.cells, nil)
		if err != nil {
			return nil, err
		}

		// Advance every connection to the next level's tags.
		for i := range cells {
			if cells[i].IsIdle() {
				continue
			}
			cells[i], err = bsn.AdvanceIn(cells[i], &p.arena)
			if err != nil {
				return nil, fmt.Errorf("feedback: advancing after size-%d level: %w", size, err)
			}
		}
	}

	// Delivery pass: stage 0 acts as the column of final 2x2 switches.
	fp := p.passes[len(p.passes)-1]
	for w := 0; w < n/2; w++ {
		heads := [2]tag.Value{tag.Eps, tag.Eps}
		for k, c := range cells[2*w : 2*w+2] {
			if c.IsIdle() {
				continue
			}
			if len(c.Seq) != 1 {
				return nil, fmt.Errorf("feedback: final-level cell from input %d still has %d tags", c.Source, len(c.Seq))
			}
			heads[k] = c.Seq[0]
		}
		setting, err := core.FinalSetting(heads)
		if err != nil {
			return nil, err
		}
		fp.Stages[0][w] = setting
	}
	cells, err := rbn.ApplyScratch(fp, cells, p.cells, bsn.SplitCell)
	if err != nil {
		return nil, err
	}

	for i, c := range cells {
		if c.IsIdle() {
			p.deliveries[i] = core.Delivery{Source: -1}
		} else {
			p.deliveries[i] = core.Delivery{Source: c.Source, Payload: c.Payload}
		}
	}
	for out, want := range p.owner {
		if p.deliveries[out].Source != want {
			return nil, fmt.Errorf("feedback: output %d received source %d, want %d", out, p.deliveries[out].Source, want)
		}
	}
	p.res = Result{N: n, Deliveries: p.deliveries, Passes: p.passes}
	return &p.res, nil
}

// levelPass fills full with one pass operating on independent aligned
// blocks of the given size: stages [0, log2(size)) carry each block's
// sub-plan; the higher stages stay parallel (identity). Sub-plans for
// blocks smaller than n are computed into the retained subs entry and
// copied, so the pass allocates nothing.
func (p *Planner) levelPass(full *rbn.Plan, size int, cells []bsn.Cell, scatter bool) error {
	n := p.n
	bt := p.blockTags[:size]
	for off := 0; off < n; off += size {
		for i, c := range cells[off : off+size] {
			if c.IsIdle() {
				bt[i] = tag.Eps
			} else {
				bt[i] = c.Tag
			}
		}
		dst := full
		if size < n {
			dst = p.subs[shuffle.Log2(n/size)]
		}
		var err error
		if scatter {
			if err = tag.Count(bt).CheckBSNInput(size); err == nil {
				err = rbn.ScatterPlanInto(dst, bt, 0, p.sc)
			}
		} else {
			err = rbn.QuasisortPlanInto(dst, p.divided[:size], bt, p.sc)
		}
		if err != nil {
			return fmt.Errorf("feedback: block at %d (size %d): %w", off, size, err)
		}
		if dst != full {
			for j := 0; j < dst.M; j++ {
				copy(full.Stages[j][off/2:off/2+size/2], dst.Stages[j])
			}
		}
	}
	return nil
}
