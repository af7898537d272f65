package backend

import (
	"brsmn/internal/cost"
	"brsmn/internal/fabric"
	"brsmn/internal/feedback"
	"brsmn/internal/mcast"
	"brsmn/internal/rbn"
	"brsmn/internal/shuffle"
	"brsmn/internal/swbox"
)

// Feedback is the Section 7.3 feedback BRSMN behind the Backend
// interface: a single RBN's hardware reconfigured over 2 log2(n) - 1
// sequential passes. Its plans are not patchable — every membership
// change recomputes all passes.
type Feedback struct {
	n    int
	m    int
	pool *feedback.PlannerPool
}

// NewFeedback returns the feedback backend for an n x n network.
func NewFeedback(n int, eng rbn.Engine) (*Feedback, error) {
	pool, err := feedback.NewPlannerPool(n, eng)
	if err != nil {
		return nil, err
	}
	return &Feedback{n: n, m: shuffle.Log2(n), pool: pool}, nil
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
	pl := b.pool.Get()
	defer b.pool.Put(pl)
	res, err := pl.Route(a)
	if err != nil {
		return nil, err
	}
	n, m := b.n, b.m
	cols := make([]fabric.Column, 0, 2*m*(m-1)+1)
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
					Settings:  append([]swbox.Setting(nil), p.Stages[j]...),
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
		Settings:  append([]swbox.Setting(nil), fp.Stages[0]...),
	})
	return &Route{
		Backend:    TierFeedback,
		Columns:    cols,
		Passes:     res.NumPasses(),
		Deliveries: deliverySources(res.Deliveries),
	}, nil
}
