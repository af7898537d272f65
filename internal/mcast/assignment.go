// Package mcast defines multicast assignments — the traffic unit of the
// BRSMN — together with the per-connection routing-tag binary tree of
// Section 7.1 of Yang & Wang and its serialized routing-tag sequence
// (equations 10–12, Figs. 9–11).
package mcast

import (
	"fmt"
	"sort"

	"brsmn/internal/shuffle"
)

// Assignment is a multicast assignment for an n x n network: Dests[i] is
// the destination set I_i of input i (nil or empty for an idle input).
// A valid assignment has pairwise-disjoint destination sets whose union is
// a subset of {0, ..., n-1}.
type Assignment struct {
	N     int
	Dests [][]int
}

// New builds and validates an assignment. The destination sets are
// defensively copied, into one backing array, and sorted.
func New(n int, dests [][]int) (Assignment, error) {
	if !shuffle.IsPow2(n) || n < 2 {
		return Assignment{}, fmt.Errorf("mcast: network size %d is not a power of two >= 2", n)
	}
	if len(dests) > n {
		return Assignment{}, fmt.Errorf("mcast: %d destination sets for %d inputs", len(dests), n)
	}
	a := Assignment{N: n, Dests: make([][]int, n)}
	total := 0
	for _, ds := range dests {
		total += len(ds)
	}
	flat := make([]int, 0, total)
	for i, ds := range dests {
		if len(ds) == 0 {
			continue
		}
		lo := len(flat)
		flat = append(flat, ds...)
		cp := flat[lo:len(flat):len(flat)]
		sort.Ints(cp)
		a.Dests[i] = cp
	}
	if err := a.Validate(); err != nil {
		return Assignment{}, err
	}
	return a, nil
}

// MustNew is New but panics on error; intended for tests and examples with
// literal assignments.
func MustNew(n int, dests [][]int) Assignment {
	a, err := New(n, dests)
	if err != nil {
		panic(err)
	}
	return a
}

// Validate checks the multicast assignment conditions: every destination
// is in range and no output appears in two destination sets.
func (a Assignment) Validate() error {
	return a.OwnerInto(make([]int, a.N))
}

// OwnerInto validates the assignment while filling owner (length a.N)
// with each output's connected input, -1 for unfed outputs — the fused,
// allocation-free form of Validate + OutputOwner used by the routing
// planner.
func (a Assignment) OwnerInto(owner []int) error {
	if !shuffle.IsPow2(a.N) || a.N < 2 {
		return fmt.Errorf("mcast: network size %d is not a power of two >= 2", a.N)
	}
	if len(a.Dests) != a.N {
		return fmt.Errorf("mcast: %d destination sets, want %d", len(a.Dests), a.N)
	}
	if len(owner) != a.N {
		return fmt.Errorf("mcast: owner buffer of length %d for %d outputs", len(owner), a.N)
	}
	for i := range owner {
		owner[i] = -1
	}
	for i, ds := range a.Dests {
		prev := -1
		for _, d := range ds {
			if d < 0 || d >= a.N {
				return fmt.Errorf("mcast: input %d has out-of-range destination %d", i, d)
			}
			if d == prev {
				return fmt.Errorf("mcast: input %d lists destination %d twice", i, d)
			}
			prev = d
			if j := owner[d]; j >= 0 {
				return fmt.Errorf("mcast: output %d requested by both inputs %d and %d", d, j, i)
			}
			owner[d] = i
		}
	}
	return nil
}

// Fanout returns the total number of (input, output) connection pairs.
func (a Assignment) Fanout() int {
	f := 0
	for _, ds := range a.Dests {
		f += len(ds)
	}
	return f
}

// ActiveInputs returns the number of inputs with a non-empty destination
// set.
func (a Assignment) ActiveInputs() int {
	c := 0
	for _, ds := range a.Dests {
		if len(ds) > 0 {
			c++
		}
	}
	return c
}

// IsPermutation reports whether the assignment is a (partial) permutation:
// every destination set has at most one element.
func (a Assignment) IsPermutation() bool {
	for _, ds := range a.Dests {
		if len(ds) > 1 {
			return false
		}
	}
	return true
}

// IsFull reports whether every output is the destination of some input.
func (a Assignment) IsFull() bool { return a.Fanout() == a.N }

// OutputOwner returns, for each output, the input connected to it, or -1
// if the output receives nothing.
func (a Assignment) OutputOwner() []int {
	owner := make([]int, a.N)
	for i := range owner {
		owner[i] = -1
	}
	for i, ds := range a.Dests {
		for _, d := range ds {
			owner[d] = i
		}
	}
	return owner
}

// Split partitions the assignment's destination sets around the most
// significant address bit: upper[i] holds the destinations of input i that
// lie in [0, n/2), re-expressed for an n/2-output network, and lower[i]
// those in [n/2, n) minus n/2. It is the logical effect of one binary
// splitting network level (Section 2, Cases 1–3). The association of
// connections to the inputs of the half-size networks is performed by the
// routing fabric, not here; Split is the specification-side view used by
// the oracle and tests.
func (a Assignment) Split() (upper, lower [][]int) {
	h := a.N / 2
	upper = make([][]int, a.N)
	lower = make([][]int, a.N)
	for i, ds := range a.Dests {
		for _, d := range ds {
			if d < h {
				upper[i] = append(upper[i], d)
			} else {
				lower[i] = append(lower[i], d-h)
			}
		}
	}
	return upper, lower
}

// String renders the assignment in the paper's set notation, e.g.
// {{0,1}, ∅, {3,4,7}, {2}, ∅, ∅, ∅, {5,6}}.
func (a Assignment) String() string {
	s := "{"
	for i, ds := range a.Dests {
		if i > 0 {
			s += ", "
		}
		if len(ds) == 0 {
			s += "∅"
			continue
		}
		s += "{"
		for j, d := range ds {
			if j > 0 {
				s += ","
			}
			s += fmt.Sprint(d)
		}
		s += "}"
	}
	return s + "}"
}

// Permutation builds a (partial) permutation assignment from a destination
// vector: perm[i] is the destination of input i, or a negative value for
// an idle input.
func Permutation(perm []int) (Assignment, error) {
	n := len(perm)
	dests := make([][]int, n)
	for i, d := range perm {
		if d >= 0 {
			dests[i] = []int{d}
		}
	}
	return New(n, dests)
}

// Broadcast builds the assignment in which input src multicasts to every
// output of an n x n network.
func Broadcast(n, src int) (Assignment, error) {
	if src < 0 || src >= n {
		return Assignment{}, fmt.Errorf("mcast: broadcast source %d out of range [0,%d)", src, n)
	}
	dests := make([][]int, n)
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	dests[src] = all
	return New(n, dests)
}
