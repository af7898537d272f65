// Package backend puts the repository's three routing fabrics behind
// one stateless planner-backend interface — the full BRSMN (package
// core), the feedback BRSMN (package feedback, Section 7.3) and the
// unicast permutation network (package permnet, Cheng & Chen) — so they
// can be compared like for like, as in the paper's Table 2. Every
// backend produces the same artifact: a flattened switch-column program
// plus per-output deliveries, with the pass count and a cost.Row
// describing what the fabric spends to realize it. Group serving always
// plans on the full BRSMN; the other two answer POST /v1/plan requests
// that name them and the tiers benchmark.
package backend

import (
	"fmt"

	"brsmn/internal/cost"
	"brsmn/internal/fabric"
	"brsmn/internal/mcast"
)

// Tier identifies a planner backend. The zero value is TierBRSMN.
type Tier uint8

const (
	// TierBRSMN is the full unrolled BRSMN: one pass, patchable plans.
	TierBRSMN Tier = iota
	// TierFeedback is the feedback BRSMN: one RBN's hardware, 2 log2(n) - 1
	// sequential passes.
	TierFeedback
	// TierPermNet is the unicast permutation network: one pass per unit of
	// fanout.
	TierPermNet
)

// String returns the wire name of the tier (the /v1 `backend` field).
func (t Tier) String() string {
	switch t {
	case TierBRSMN:
		return "brsmn"
	case TierFeedback:
		return "feedback"
	case TierPermNet:
		return "permnet"
	}
	return fmt.Sprintf("tier(%d)", uint8(t))
}

// ParseTier parses a wire name; the empty string means TierBRSMN.
func ParseTier(s string) (Tier, error) {
	switch s {
	case "", "brsmn":
		return TierBRSMN, nil
	case "feedback":
		return TierFeedback, nil
	case "permnet":
		return TierPermNet, nil
	}
	return TierBRSMN, fmt.Errorf("backend: unknown backend %q (want brsmn, feedback or permnet)", s)
}

// Tiers lists the backends, in tier order.
func Tiers() []Tier { return []Tier{TierBRSMN, TierFeedback, TierPermNet} }

// Route is a fabric-independent routed assignment: the switch-column
// program realizing it, how many injection passes the program spans, and
// the per-output delivered sources (-1 for idle outputs).
//
// For single-injection backends (brsmn, feedback) Columns is one linear
// program executable by fabric.Run. The permnet backend decomposes a
// multicast assignment into one unicast pass per unit of fanout, each
// pass re-injecting the sources; its Columns concatenate the per-pass
// programs in order (a pass boundary is where Level restarts at 1).
type Route struct {
	Backend Tier
	Columns []fabric.Column
	Passes  int
	// Deliveries[out] is the source delivered to output out, -1 if idle.
	Deliveries []int
}

// Backend is one routing fabric behind the common planning surface.
// Implementations are safe for concurrent use.
type Backend interface {
	// Name returns the tier's wire name.
	Name() string
	// Route realizes a multicast assignment, verifying deliveries.
	Route(a mcast.Assignment) (*Route, error)
	// Cost returns the fabric's closed-form hardware/latency row at the
	// backend's network size.
	Cost() cost.Row
}

// New constructs the backend implementing a tier for an n x n network.
func New(t Tier, n int) (Backend, error) {
	switch t {
	case TierBRSMN:
		return NewBRSMN(n)
	case TierFeedback:
		return NewFeedback(n)
	case TierPermNet:
		return NewPermNet(n)
	}
	return nil, fmt.Errorf("backend: no implementation for tier %v", t)
}

// All constructs every backend for an n x n network, indexed by tier,
// for callers (the backend catalogue, the bench harness) that compare
// the tiers side by side.
func All(n int) (map[Tier]Backend, error) {
	out := make(map[Tier]Backend, 3)
	for _, t := range Tiers() {
		b, err := New(t, n)
		if err != nil {
			return nil, err
		}
		out[t] = b
	}
	return out, nil
}
