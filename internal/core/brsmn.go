// Package core implements the paper's primary contribution: the binary
// radix sorting multicast network (BRSMN) of Yang & Wang. An n x n BRSMN
// is an n x n binary splitting network (BSN) followed by two n/2 x n/2
// BRSMNs (Fig. 1); the recursion bottoms out in a column of 2x2 switches
// that deliver each connection to its final output(s) (Fig. 2).
//
// The network is self-routing: each input carries only its routing-tag
// sequence (package mcast), every BSN sets its own switches with the
// distributed algorithms of package rbn, and a connection whose
// destinations straddle both halves of a level is split in flight by a
// broadcast switch. Any multicast assignment — pairwise-disjoint
// destination sets — is realized without blocking, over edge-disjoint
// trees.
package core

import (
	"fmt"

	"brsmn/internal/mcast"
	"brsmn/internal/rbn"
	"brsmn/internal/swbox"
	"brsmn/internal/tag"
)

// LevelPlan records the switch plans of one BSN instance: the level it
// sits at (1-based, level 1 = outermost), the first network output under
// it, and the scatter and quasisort reverse-banyan plans.
type LevelPlan struct {
	Level   int
	Base    int
	Size    int
	Scatter *rbn.Plan
	Quasi   *rbn.Plan
}

// Delivery is what one network output receives: the source input of the
// connection delivered there (-1 if none) and its payload.
type Delivery struct {
	Source  int
	Payload any
}

// Result is a fully routed multicast assignment: per-output deliveries
// plus every switch setting chosen along the way, for verification, cost
// accounting and rendering.
type Result struct {
	N          int
	Deliveries []Delivery
	Plans      []LevelPlan
	// Final[i] is the setting of the i-th last-level 2x2 switch.
	Final []swbox.Setting
}

// Network is an n x n BRSMN routing engine backed by a planner pool:
// each Route draws a warm arena-backed Planner, routes through it, and
// detaches the result, so steady-state routing costs a handful of
// allocations (the detached Result) instead of rebuilding the whole
// pipeline. A Network is safe for concurrent use. The zero value is not
// usable; construct with New.
type Network struct {
	n    int
	pool *PlannerPool
}

// New returns an n x n BRSMN (n a power of two, n >= 2). The trailing
// rbn.Engine is accepted and ignored; see its doc for the one caller
// that still passes it.
func New(n int, _ ...rbn.Engine) (*Network, error) {
	pool, err := NewPlannerPool(n)
	if err != nil {
		return nil, err
	}
	return &Network{n: n, pool: pool}, nil
}

// N returns the network size.
func (nw *Network) N() int { return nw.n }

// Planners exposes the network's planner pool for callers that want the
// raw zero-allocation path (results valid only until the planner's next
// Route) instead of Route's detached results.
func (nw *Network) Planners() *PlannerPool { return nw.pool }

// Route realizes a multicast assignment: it computes every switch setting
// with the self-routing algorithms and simulates the resulting
// configuration, returning the per-output deliveries. The routing is
// verified internally: Route fails rather than return a misdelivery.
func (nw *Network) Route(a mcast.Assignment) (*Result, error) {
	return nw.RouteWithPayloads(a, nil)
}

// RouteWithPayloads is Route with a payload attached to each input's
// connection; Deliveries carry the payloads to every destination.
// payloads may be nil for payload-free routing.
func (nw *Network) RouteWithPayloads(a mcast.Assignment, payloads []any) (*Result, error) {
	pl := nw.pool.Get()
	res, err := pl.RouteWithPayloads(a, payloads)
	if err != nil {
		nw.pool.Put(pl)
		return nil, err
	}
	out := res.Clone()
	nw.pool.Put(pl)
	return out, nil
}

// deliveryOf resolves a final-column cell into a Delivery, attaching the
// source's payload from the latest route.
func (p *Planner) deliveryOf(c pcell) Delivery {
	if c.isIdle() {
		return Delivery{Source: -1}
	}
	d := Delivery{Source: int(c.src)}
	if p.payloads != nil {
		d.Payload = p.payloads[c.src]
	}
	return d
}

// splitFinal duplicates a broadcast connection onto both final outputs;
// the delivery is fully described by the source, so the split is the
// identity.
func splitFinal(c pcell) (pcell, pcell) { return c, c }

// FinalSetting chooses the 2x2 switch setting realizing the two final
// tags. The valid combinations follow from the BSN constraints: at most
// one connection wants each output.
func FinalSetting(h [2]tag.Value) (swbox.Setting, error) {
	want := func(v tag.Value, out int) bool {
		return v == tag.Alpha || (out == 0 && v == tag.V0) || (out == 1 && v == tag.V1)
	}
	w00, w01 := want(h[0], 0), want(h[0], 1) // input 0 wants output 0 / 1
	w10, w11 := want(h[1], 0), want(h[1], 1)
	if (w00 && w10) || (w01 && w11) {
		return 0, fmt.Errorf("core: final switch conflict: tags (%v, %v)", h[0], h[1])
	}
	switch {
	case h[0] == tag.Alpha:
		return swbox.UpperBcast, nil
	case h[1] == tag.Alpha:
		return swbox.LowerBcast, nil
	case w01 || w10:
		return swbox.Cross, nil
	default:
		return swbox.Parallel, nil
	}
}

// Verify checks a routed Result against the assignment: every destination
// receives exactly its source's connection, and outputs outside every
// destination set receive nothing.
func Verify(a mcast.Assignment, res *Result) error {
	if a.N != res.N {
		return fmt.Errorf("core: verifying an n=%d assignment against an n=%d result", a.N, res.N)
	}
	return verifyOwner(a.OutputOwner(), res.Deliveries)
}

// Route is a convenience constructing a network and routing one
// assignment through it.
func Route(a mcast.Assignment) (*Result, error) {
	nw, err := New(a.N)
	if err != nil {
		return nil, err
	}
	return nw.Route(a)
}
