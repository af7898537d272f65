package brsmn

import (
	"fmt"
	"math/rand"

	"brsmn/internal/core"
	"brsmn/internal/feedback"
	"brsmn/internal/mcast"
	"brsmn/internal/permnet"
	"brsmn/internal/workload"
	"brsmn/internal/xbar"
)

// Assignment is a multicast assignment: Dests[i] is the destination set
// of input i. Destination sets must be pairwise disjoint.
type Assignment = mcast.Assignment

// Result is a routed multicast assignment: per-output Deliveries plus
// every switch plan chosen along the way.
type Result = core.Result

// Delivery is what one output receives: the source input (-1 if idle)
// and its payload.
type Delivery = core.Delivery

// FeedbackResult is a routed assignment on the feedback network,
// including the per-pass reconfigurations of its single reverse banyan
// network.
type FeedbackResult = feedback.Result

// NewAssignment builds and validates a multicast assignment for an n x n
// network; dests[i] lists the outputs input i multicasts to (nil for an
// idle input).
func NewAssignment(n int, dests [][]int) (Assignment, error) {
	return mcast.New(n, dests)
}

// PermutationAssignment builds a (partial) permutation assignment:
// perm[i] is input i's destination, or negative for idle.
func PermutationAssignment(perm []int) (Assignment, error) {
	return mcast.Permutation(perm)
}

// BroadcastAssignment builds the assignment in which input src
// multicasts to every output.
func BroadcastAssignment(n, src int) (Assignment, error) {
	return mcast.Broadcast(n, src)
}

// Network is an n x n BRSMN — the unrolled network of the paper's main
// construction.
type Network struct {
	inner *core.Network
}

// New returns an n x n BRSMN (n a power of two >= 2).
func New(n int) (*Network, error) {
	inner, err := core.New(n)
	if err != nil {
		return nil, err
	}
	return &Network{inner: inner}, nil
}

// N returns the network size.
func (nw *Network) N() int { return nw.inner.N() }

// Route realizes a multicast assignment: it computes every switch
// setting with the paper's self-routing algorithms, simulates the
// configured fabric, verifies the deliveries and returns them.
func (nw *Network) Route(a Assignment) (*Result, error) { return nw.inner.Route(a) }

// RouteWithPayloads is Route with a payload per input; every destination
// of a multicast receives its source's payload.
func (nw *Network) RouteWithPayloads(a Assignment, payloads []any) (*Result, error) {
	return nw.inner.RouteWithPayloads(a, payloads)
}

// Planner is a reusable routing pipeline: all scratch state a routing
// needs — per-level cell buffers, tag-sequence arenas, and the RBN plan
// storage for every sub-BSN — is allocated once at construction and
// recycled across calls, so steady-state Route allocates (almost)
// nothing.
//
// The trade for zero allocation is result lifetime: a Result returned
// by a Planner aliases the planner's internal storage and is valid only
// until the next Route/RouteWithPayloads call on the same planner. Call
// Result.Clone to detach a result you need to keep. A Planner is NOT
// safe for concurrent use; give each goroutine its own, or use Network
// (whose internal planner pool makes Route concurrency-safe at the cost
// of one detaching clone per call).
type Planner struct {
	inner *core.Planner
}

// NewPlanner returns a reusable planner for an n x n BRSMN.
func NewPlanner(n int) (*Planner, error) {
	inner, err := core.NewPlanner(n)
	if err != nil {
		return nil, err
	}
	return &Planner{inner: inner}, nil
}

// N returns the planner's network size.
func (p *Planner) N() int { return p.inner.N() }

// Route routes a multicast assignment reusing the planner's scratch
// state. The Result aliases planner storage — see the Planner doc.
func (p *Planner) Route(a Assignment) (*Result, error) { return p.inner.Route(a) }

// RouteWithPayloads is Route with a payload per input.
func (p *Planner) RouteWithPayloads(a Assignment, payloads []any) (*Result, error) {
	return p.inner.RouteWithPayloads(a, payloads)
}

// FeedbackNetwork is the feedback implementation of the BRSMN
// (Section 7.3 of the paper): one reverse banyan network reused for
// 2 log2(n) - 1 passes, for O(n log n) hardware cost.
type FeedbackNetwork struct {
	inner *feedback.Network
}

// NewFeedback returns an n x n feedback BRSMN.
func NewFeedback(n int) (*FeedbackNetwork, error) {
	inner, err := feedback.New(n)
	if err != nil {
		return nil, err
	}
	return &FeedbackNetwork{inner: inner}, nil
}

// N returns the network size.
func (nw *FeedbackNetwork) N() int { return nw.inner.N() }

// Route realizes a multicast assignment through the feedback network.
func (nw *FeedbackNetwork) Route(a Assignment) (*FeedbackResult, error) {
	return nw.inner.Route(a)
}

// RouteWithPayloads is Route with a payload per input.
func (nw *FeedbackNetwork) RouteWithPayloads(a Assignment, payloads []any) (*FeedbackResult, error) {
	return nw.inner.RouteWithPayloads(a, payloads)
}

// HardwareSwitches returns the 2x2-switch count of the feedback
// implementation: (n/2) log2 n, a log n factor below the unrolled
// network.
func (nw *FeedbackNetwork) HardwareSwitches() int { return nw.inner.HardwareSwitches() }

// RoutePermutation routes a (partial) permutation through the unicast
// specialization of the network (quasisorting passes only — the Cheng &
// Chen self-routing permutation network the paper builds on). It returns
// out[d] = source input for each destination d, or -1.
func RoutePermutation(perm []int) ([]int, error) {
	res, err := permnet.Route(perm)
	if err != nil {
		return nil, err
	}
	return res.OutSource, nil
}

// Oracle routes an assignment through an n x n crossbar — the trivial
// reference implementation — returning the source feeding each output.
func Oracle(a Assignment) ([]int, error) {
	xb, err := xbar.New(a.N)
	if err != nil {
		return nil, err
	}
	return xb.Route(a)
}

// RandomAssignment draws a random multicast assignment: a `load`
// fraction of outputs receive traffic from about `activeFrac`·n inputs.
func RandomAssignment(rng *rand.Rand, n int, load, activeFrac float64) Assignment {
	return workload.Random(rng, n, load, activeFrac)
}

// RandomPermutation draws a full random permutation assignment.
func RandomPermutation(rng *rand.Rand, n int) Assignment {
	return workload.Permutation(rng, n)
}

// MaxSplitAssignment builds the adversarial maximum-split workload:
// `groups` inputs each multicasting to a maximally spread destination
// comb. groups must be a power of two dividing n.
func MaxSplitAssignment(n, groups int) (Assignment, error) {
	return workload.MaxSplit(n, groups)
}

// HotSpotAssignment builds a workload with one hot input of the given
// fanout plus background unicasts at the given load.
func HotSpotAssignment(rng *rand.Rand, n, hot int, load float64) Assignment {
	return workload.HotSpot(rng, n, hot, load)
}

// Fig2Assignment returns the 8 x 8 example of the paper's Fig. 2:
// {{0,1}, ∅, {3,4,7}, {2}, ∅, ∅, ∅, {5,6}}.
func Fig2Assignment() Assignment { return workload.PaperFig2() }

// Verify checks a Result against an Assignment output by output. Route
// already performs this check; Verify is exposed for users consuming
// results across trust boundaries.
func Verify(a Assignment, res *Result) error { return core.Verify(a, res) }

// mustNetwork panics on construction errors for internal one-shot paths.
func mustNetwork(n int) *Network {
	nw, err := New(n)
	if err != nil {
		panic(fmt.Sprintf("brsmn: %v", err))
	}
	return nw
}

// Route is a one-shot convenience: construct a network of the
// assignment's size and route it.
func Route(a Assignment) (*Result, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return mustNetwork(a.N).Route(a)
}

// ZipfAssignment draws a multicast assignment whose fanouts follow a
// Zipf-like heavy tail with exponent s (> 1): the fanout profile of real
// multicast traffic.
func ZipfAssignment(rng *rand.Rand, n int, s, load float64) Assignment {
	return workload.ZipfFanout(rng, n, s, load)
}

// BurstyBatch draws a sequence of assignments alternating high-load and
// low-load phases of the given length — on/off traffic for stressing
// schedulers and pipelines.
func BurstyBatch(rng *rand.Rand, n, count int, onLoad, offLoad float64, phase int) []Assignment {
	raw := workload.Bursty(rng, n, count, onLoad, offLoad, phase)
	out := make([]Assignment, len(raw))
	for i := range raw {
		out[i] = raw[i]
	}
	return out
}
