package backend

import (
	"fmt"

	"brsmn/internal/cost"
	"brsmn/internal/fabric"
	"brsmn/internal/mcast"
	"brsmn/internal/permnet"
	"brsmn/internal/shuffle"
	"brsmn/internal/swbox"
)

// PermNet is the Cheng & Chen unicast permutation network behind the
// Backend interface. A multicast assignment is decomposed into unicast
// passes: pass p routes every input to its p-th destination, which is a
// valid partial permutation because destination sets are pairwise
// disjoint. A group with fanout f therefore costs f injection passes on
// half the BRSMN's hardware.
type PermNet struct {
	n int
	m int
}

// NewPermNet returns the permutation-network backend for an n x n
// network.
func NewPermNet(n int) (*PermNet, error) {
	if !shuffle.IsPow2(n) || n < 2 {
		return nil, fmt.Errorf("backend: network size %d is not a power of two >= 2", n)
	}
	return &PermNet{n: n, m: shuffle.Log2(n)}, nil
}

// Name implements Backend.
func (b *PermNet) Name() string { return TierPermNet.String() }

// Cost implements Backend: the row of one unicast pass.
func (b *PermNet) Cost() cost.Row { return cost.PermNet(b.n) }

// Route implements Backend. Each pass contributes the quasisort columns
// of its log2(n) levels — level k touches only stages [0, log2(n/2^k))
// of its blocks, so the identity stages above are elided and a pass
// spans cost.PermNet(n).Depth columns. Passes re-inject the sources
// (Columns is not one fabric.Run program); a pass boundary is where
// Level restarts at 1.
func (b *PermNet) Route(a mcast.Assignment) (*Route, error) {
	n := b.n
	if a.N != n {
		return nil, fmt.Errorf("backend: assignment for %d inputs on a %d x %d network", a.N, n, n)
	}
	owner := make([]int, n)
	if err := a.OwnerInto(owner); err != nil {
		return nil, err
	}
	passes := 0
	for _, ds := range a.Dests {
		if len(ds) > passes {
			passes = len(ds)
		}
	}
	deliveries := make([]int, n)
	for i := range deliveries {
		deliveries[i] = -1
	}
	var cols []fabric.Column
	perm := make([]int, n)
	for p := 0; p < passes; p++ {
		for i, ds := range a.Dests {
			if p < len(ds) {
				perm[i] = ds[p]
			} else {
				perm[i] = -1
			}
		}
		res, err := permnet.Route(perm)
		if err != nil {
			return nil, fmt.Errorf("backend: permnet pass %d: %w", p, err)
		}
		for k, lp := range res.Levels {
			stages := b.m - k // log2 of the level's block size
			for j := 0; j < stages; j++ {
				cols = append(cols, fabric.Column{
					Kind:      fabric.ColQuasisort,
					Level:     k + 1,
					BlockSize: 1 << (j + 1),
					Settings:  append([]swbox.Setting(nil), lp.Stages[j]...),
				})
			}
		}
		for d, src := range res.OutSource {
			if src >= 0 {
				deliveries[d] = src
			}
		}
	}
	for d, want := range owner {
		if deliveries[d] != want {
			return nil, fmt.Errorf("backend: permnet output %d received source %d, want %d", d, deliveries[d], want)
		}
	}
	return &Route{
		Backend:    TierPermNet,
		Columns:    cols,
		Passes:     passes,
		Deliveries: deliveries,
	}, nil
}
