package backend

import (
	"sync"

	"brsmn/internal/cost"
	"brsmn/internal/fabric"
	"brsmn/internal/feedback"
	"brsmn/internal/mcast"
	"brsmn/internal/shuffle"
	"brsmn/internal/swbox"
)

// Feedback is the Section 7.3 feedback BRSMN behind the Backend
// interface: a single RBN's hardware reconfigured over 2 log2(n) - 1
// sequential passes. Its plans are not patchable — every membership
// change recomputes all passes.
type Feedback struct {
	n int
	m int
	// pool holds idle *feedback.Planner values; they go at GC, as the
	// BRSMN backend's do. Route flattens the planner's aliased result
	// before Put, so it never pays feedback.Network's detaching clone.
	pool sync.Pool
}

// NewFeedback returns the feedback backend for an n x n network.
func NewFeedback(n int) (*Feedback, error) {
	pl, err := feedback.NewPlanner(n)
	if err != nil {
		return nil, err
	}
	b := &Feedback{n: n, m: shuffle.Log2(n)}
	b.pool.New = func() any {
		pl, _ := feedback.NewPlanner(n) // n validated above
		return pl
	}
	b.pool.Put(pl)
	return b, nil
}

// Name implements Backend.
func (b *Feedback) Name() string { return TierFeedback.String() }

// Cost implements Backend.
func (b *Feedback) Cost() cost.Row { return cost.Feedback(b.n) }

// Route implements Backend. Every scatter/quasisort pass contributes its
// full log2(n) stages as columns — the cells physically traverse the
// whole RBN each trip, with the stages above the pass's block size set
// parallel (identity) — and the delivery pass contributes its stage-0
// column, so a routing yields 2 log2(n) (log2(n) - 1) + 1 columns. The
// program executes under fabric.Run exactly like an unrolled plan: the
// level hand-off advances after the last column of each quasisort pass.
func (b *Feedback) Route(a mcast.Assignment) (*Route, error) {
	pl := b.pool.Get().(*feedback.Planner)
	defer b.pool.Put(pl)
	res, err := pl.Route(a)
	if err != nil {
		return nil, err
	}
	n, m := b.n, b.m
	depth := 2*m*(m-1) + 1
	// Every column's settings are carved from one backing array.
	backing := make([]swbox.Setting, depth*n/2)
	settings := func(stage []swbox.Setting) []swbox.Setting {
		s := backing[: n/2 : n/2]
		backing = backing[n/2:]
		copy(s, stage)
		return s
	}
	cols := make([]fabric.Column, 0, depth)
	pi := 0
	level := 0
	for size := n; size > 2; size /= 2 {
		level++
		for _, kind := range []fabric.ColumnKind{fabric.ColScatter, fabric.ColQuasisort} {
			p := res.Passes[pi]
			pi++
			for j := 0; j < m; j++ {
				cols = append(cols, fabric.Column{
					Kind:      kind,
					Level:     level,
					BlockSize: 1 << (j + 1),
					Settings:  settings(p.Stages[j]),
				})
			}
		}
		cols[len(cols)-1].AdvanceAfter = true
	}
	fp := res.Passes[len(res.Passes)-1]
	cols = append(cols, fabric.Column{
		Kind:      fabric.ColDeliver,
		Level:     level + 1,
		BlockSize: 2,
		Settings:  settings(fp.Stages[0]),
	})
	return &Route{
		Backend:    TierFeedback,
		Columns:    cols,
		Passes:     res.NumPasses(),
		Deliveries: deliverySources(res.Deliveries),
	}, nil
}
