// Package feedback implements the feedback version of the BRSMN
// (Section 7.3, Fig. 13 of Yang & Wang): a single n x n reverse banyan
// network whose outputs are fed back to the inputs with the same
// addresses, reused for every pass.
//
// Pass structure: level k of the unrolled BRSMN needs 2^(k-1) independent
// binary splitting networks of size n' = n / 2^(k-1). In an RBN, the
// sub-RBNs of size n' are exactly the first log2(n') stages restricted to
// aligned blocks, so a pass sets those stages per block with the usual
// distributed algorithms and sets the remaining stages to parallel — the
// merging stage's pair wiring makes an all-parallel stage the identity.
// Each level takes two passes (scatter, then quasisort); one final pass
// configures the stage-1 switches as the delivery column. The whole
// network therefore uses a single RBN's hardware — O(n log n) cost — at
// the price of 2 log2(n) - 1 sequential passes.
//
// Route and Network.Route allocate their Result afresh per call; the
// serving hot path holds a Planner, whose Route reuses every pass plan,
// cell buffer and routing-tag arena across calls.
package feedback

import (
	"sync"

	"brsmn/internal/core"
	"brsmn/internal/mcast"
	"brsmn/internal/rbn"
	"brsmn/internal/shuffle"
)

// Network is the feedback BRSMN: one n x n RBN plus the feedback wrap.
// It is safe for concurrent use: each route draws an idle Planner from a
// sync.Pool, so idle planners beyond the steady concurrency go at GC.
type Network struct {
	n    int
	pool sync.Pool // idle *Planner values
}

// New returns an n x n feedback BRSMN.
func New(n int) (*Network, error) {
	pl, err := NewPlanner(n)
	if err != nil {
		return nil, err
	}
	nw := &Network{n: n}
	nw.pool.New = func() any {
		pl, _ := NewPlanner(n) // n validated above
		return pl
	}
	nw.pool.Put(pl)
	return nw, nil
}

// N returns the network size.
func (nw *Network) N() int { return nw.n }

// Result records a routed assignment: the deliveries plus the RBN's
// switch plan for every pass (the same physical switches, reconfigured).
type Result struct {
	N          int
	Deliveries []core.Delivery
	Passes     []*rbn.Plan
}

// NumPasses returns how many trips through the RBN the routing took.
func (r *Result) NumPasses() int { return len(r.Passes) }

// Clone returns a deep copy of the result that shares no storage with
// the receiver — the detach step Network.Route performs on a pooled
// planner's aliased result.
func (r *Result) Clone() *Result {
	out := &Result{
		N:          r.N,
		Deliveries: append([]core.Delivery(nil), r.Deliveries...),
		Passes:     make([]*rbn.Plan, len(r.Passes)),
	}
	for i, p := range r.Passes {
		q := rbn.NewPlan(p.N)
		for j := 0; j < p.M; j++ {
			copy(q.Stages[j], p.Stages[j])
		}
		out.Passes[i] = q
	}
	return out
}

// Route realizes a multicast assignment through the feedback network and
// verifies the deliveries.
func (nw *Network) Route(a mcast.Assignment) (*Result, error) {
	return nw.RouteWithPayloads(a, nil)
}

// RouteWithPayloads is Route with payloads attached to the connections.
// The returned Result is detached from the pooled planner that computed
// it, so callers may retain it indefinitely.
func (nw *Network) RouteWithPayloads(a mcast.Assignment, payloads []any) (*Result, error) {
	pl := nw.pool.Get().(*Planner)
	defer nw.pool.Put(pl)
	res, err := pl.RouteWithPayloads(a, payloads)
	if err != nil {
		return nil, err
	}
	return res.Clone(), nil
}

// Route is a convenience constructing a feedback network and routing
// one assignment.
func Route(a mcast.Assignment) (*Result, error) {
	nw, err := New(a.N)
	if err != nil {
		return nil, err
	}
	return nw.Route(a)
}

// HardwareSwitches returns the number of 2x2 switches the feedback
// implementation instantiates: a single RBN's (n/2) log2 n, independent
// of how many passes a routing takes — the cost saving of Section 7.3.
func (nw *Network) HardwareSwitches() int {
	return nw.n / 2 * shuffle.Log2(nw.n)
}
