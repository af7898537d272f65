package backend

import (
	"brsmn/internal/core"
	"brsmn/internal/cost"
	"brsmn/internal/fabric"
	"brsmn/internal/mcast"
)

// BRSMN is the full unrolled network behind the Backend interface: one
// injection pass, cost.BRSMNDepth(n) columns, and — uniquely among the
// tiers — plans that accept O(log n) membership patches.
type BRSMN struct {
	nw *core.Network
}

// NewBRSMN returns the full-BRSMN backend for an n x n network.
func NewBRSMN(n int) (*BRSMN, error) {
	nw, err := core.New(n)
	if err != nil {
		return nil, err
	}
	return &BRSMN{nw: nw}, nil
}

// Name implements Backend.
func (b *BRSMN) Name() string { return TierBRSMN.String() }

// Cost implements Backend.
func (b *BRSMN) Cost() cost.Row { return cost.BRSMN(b.nw.N()) }

// Route implements Backend: a route on a warm pooled planner, flattened
// into the linear column program before the planner goes back to the
// pool, so the planner's result is never copied.
func (b *BRSMN) Route(a mcast.Assignment) (*Route, error) {
	pool := b.nw.Planners()
	pl := pool.Get()
	defer pool.Put(pl)
	res, err := pl.Route(a)
	if err != nil {
		return nil, err
	}
	cols, err := fabric.Flatten(res)
	if err != nil {
		return nil, err
	}
	return &Route{
		Backend:    TierBRSMN,
		Columns:    cols,
		Passes:     1,
		Deliveries: deliverySources(res.Deliveries),
	}, nil
}

// deliverySources strips core deliveries down to per-output sources.
func deliverySources(ds []core.Delivery) []int {
	out := make([]int, len(ds))
	for i, d := range ds {
		out[i] = d.Source
	}
	return out
}
