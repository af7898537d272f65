// Package sched layers admission control on top of the multicast
// network. The BRSMN realizes any *assignment* — destination sets must
// be pairwise disjoint (no output can listen to two inputs at once). Real
// workloads produce overlapping multicast *requests*; sched partitions a
// batch of requests into a small number of conflict-free rounds, each a
// valid assignment routed in one network pass.
//
// The partitioner is greedy first-fit over requests in decreasing fanout
// order, which is the classic interval-style heuristic: the number of
// rounds never exceeds the batch's conflict degree (the maximum number
// of requests sharing one output or one source), and equals it whenever
// one hot output serializes everything.
package sched

import (
	"fmt"
	"math/bits"

	"brsmn/internal/core"
	"brsmn/internal/mcast"
)

// Request is one multicast demand: a source input and its destination
// set. Unlike assignments, requests in a batch may overlap freely.
type Request struct {
	Source int
	Dests  []int
}

// Validate checks the request against an n-port network.
func (r Request) Validate(n int) error {
	// Size the seen-set by the largest destination the check can reach
	// (those before the first out-of-range one), not by n.
	hi := 0
	for _, d := range r.Dests {
		if d < 0 || d >= n {
			break
		}
		hi = max(hi, d)
	}
	return r.validate(n, make([]uint64, hi>>6+1))
}

// validate is Validate with a caller-held seen-set: a bitset over the
// outputs, all zero on entry. On success it is left marking r.Dests, so
// a caller checking a batch clears those words and reuses it.
func (r Request) validate(n int, seen []uint64) error {
	if r.Source < 0 || r.Source >= n {
		return fmt.Errorf("sched: source %d out of range [0,%d)", r.Source, n)
	}
	if len(r.Dests) == 0 {
		return fmt.Errorf("sched: request from %d has no destinations", r.Source)
	}
	for _, d := range r.Dests {
		if d < 0 || d >= n {
			return fmt.Errorf("sched: request from %d has destination %d out of range", r.Source, d)
		}
		w, b := d>>6, uint64(1)<<(d&63)
		if seen[w]&b != 0 {
			return fmt.Errorf("sched: request from %d lists destination %d twice", r.Source, d)
		}
		seen[w] |= b
	}
	return nil
}

// ConflictDegree returns the largest number of requests sharing one
// output or one source — a lower bound on the number of rounds any
// schedule needs.
func ConflictDegree(n int, reqs []Request) int {
	outDeg := make([]int, n)
	srcDeg := make([]int, n)
	deg := 0
	for _, r := range reqs {
		srcDeg[r.Source]++
		if srcDeg[r.Source] > deg {
			deg = srcDeg[r.Source]
		}
		for _, d := range r.Dests {
			outDeg[d]++
			if outDeg[d] > deg {
				deg = outDeg[d]
			}
		}
	}
	return deg
}

// Schedule partitions the requests into conflict-free rounds by greedy
// first-fit in decreasing fanout order. The relative order of equal-size
// requests is kept stable, so the schedule is deterministic.
func Schedule(n int, reqs []Request) ([][]Request, error) {
	rounds, err := scheduleIdx(n, reqs)
	if err != nil {
		return nil, err
	}
	out := make([][]Request, len(rounds))
	for i, round := range rounds {
		for _, k := range round {
			out[i] = append(out[i], reqs[k])
		}
	}
	return out, nil
}

// ScheduleIndices is Schedule returning request indices per round — for
// callers (like the group manager) that must map rounds back to the
// identities behind the requests, which Source alone cannot do when two
// long-lived groups share a source.
func ScheduleIndices(n int, reqs []Request) ([][]int, error) {
	return scheduleIdx(n, reqs)
}

// scheduleIdx is Schedule returning request indices per round.
//
// The rounds are kept transposed, as one bitset over rounds per port:
// busy holds them 64 rounds to a word, word j of every port in one
// contiguous row of 2n words (outputs at p < n, sources at n + s). A
// request's first fit in rounds 64j..64j+63 is then the lowest zero bit
// of the OR of its source's and destinations' words in row j, so one
// pass over its ports tests 64 rounds at once, and the pass stops early
// once the OR is all ones: no round of that row can take the request.
func scheduleIdx(n int, reqs []Request) ([][]int, error) {
	if len(reqs) == 0 {
		return [][]int{}, nil
	}
	if n <= 0 {
		return nil, reqs[0].Validate(n)
	}
	seen := make([]uint64, (n+63)>>6)
	maxK := 0
	for _, r := range reqs {
		if err := r.validate(n, seen); err != nil {
			return nil, err
		}
		for _, d := range r.Dests {
			seen[d>>6] = 0
		}
		maxK = max(maxK, len(r.Dests))
	}

	// Decreasing fanout, batch order among equals: a stable counting
	// sort on maxK - fanout.
	start := make([]int, maxK+1)
	for _, r := range reqs {
		start[maxK-len(r.Dests)+1]++
	}
	for b := 1; b <= maxK; b++ {
		start[b] += start[b-1]
	}
	order := make([]int, len(reqs))
	for i, r := range reqs {
		b := maxK - len(r.Dests)
		order[start[b]] = i
		start[b]++
	}

	var (
		busy    []uint64
		rounds  int
		roundOf = make([]int, len(reqs))
	)
	for _, idx := range order {
		r := reqs[idx]
		rd := rounds // a new round unless an open one fits
		for j := 0; j<<6 < rounds; j++ {
			row := busy[j*2*n : (j+1)*2*n]
			acc := row[n+r.Source]
			for _, d := range r.Dests {
				if acc |= row[d]; acc == ^uint64(0) {
					break
				}
			}
			if acc != ^uint64(0) {
				rd = j<<6 + bits.TrailingZeros64(^acc)
				break
			}
		}
		if rd == rounds {
			if rounds&63 == 0 {
				busy = append(busy, make([]uint64, 2*n)...)
			}
			rounds++
		}
		row, bit := busy[(rd>>6)*2*n:(rd>>6+1)*2*n], uint64(1)<<(rd&63)
		row[n+r.Source] |= bit
		for _, d := range r.Dests {
			row[d] |= bit
		}
		roundOf[idx] = rd
	}

	// Each round's members in placement order, carved from one array.
	size := make([]int, rounds)
	for _, rd := range roundOf {
		size[rd]++
	}
	out := make([][]int, rounds)
	flat := make([]int, len(reqs))
	off := 0
	for rd, c := range size {
		out[rd] = flat[off : off : off+c]
		off += c
	}
	for _, idx := range order {
		rd := roundOf[idx]
		out[rd] = append(out[rd], idx)
	}
	return out, nil
}

// Assignments converts scheduled rounds into routable assignments.
func Assignments(n int, rounds [][]Request) ([]mcast.Assignment, error) {
	out := make([]mcast.Assignment, len(rounds))
	for i, round := range rounds {
		dests := make([][]int, n)
		for _, r := range round {
			if dests[r.Source] != nil {
				return nil, fmt.Errorf("sched: round %d uses source %d twice", i, r.Source)
			}
			if len(r.Dests) > 0 { // mcast.New copies the lists
				dests[r.Source] = r.Dests
			}
		}
		a, err := mcast.New(n, dests)
		if err != nil {
			return nil, fmt.Errorf("sched: round %d: %w", i, err)
		}
		out[i] = a
	}
	return out, nil
}

// Result is a fully scheduled and routed batch.
type Result struct {
	N      int
	Rounds []mcast.Assignment
	// Routed[i] is the network result of round i.
	Routed []*core.Result
	// RoundOf[k] is the round request k was placed in (indexed like the
	// original batch).
	RoundOf []int
}

// RouteAll schedules the batch and routes every round through an n x n
// BRSMN, verifying each round's deliveries.
func RouteAll(n int, reqs []Request) (*Result, error) {
	roundIdx, err := scheduleIdx(n, reqs)
	if err != nil {
		return nil, err
	}
	rounds := make([][]Request, len(roundIdx))
	res := &Result{N: n, RoundOf: make([]int, len(reqs))}
	for i, round := range roundIdx {
		for _, k := range round {
			rounds[i] = append(rounds[i], reqs[k])
			res.RoundOf[k] = i
		}
	}
	as, err := Assignments(n, rounds)
	if err != nil {
		return nil, err
	}
	res.Rounds = as
	nw, err := core.New(n)
	if err != nil {
		return nil, err
	}
	for i, a := range as {
		r, err := nw.Route(a)
		if err != nil {
			return nil, fmt.Errorf("sched: routing round %d: %w", i, err)
		}
		res.Routed = append(res.Routed, r)
	}
	return res, nil
}
