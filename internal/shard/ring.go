package shard

// The placement ring, shared by both serving tiers: a Set places a
// group on one of its shards, and a cluster.Node places it on one of
// its serving nodes, with the same construction over the same hash.

import "sort"

// ringReplicas is the virtual-node count per member on every placement
// ring.
const ringReplicas = 64

// Ring is a consistent-hash placement ring: every member contributes
// ringReplicas virtual nodes at placeHash(vnode(member, r)), and an ID
// belongs to the member owning the first virtual node clockwise from
// placeHash(id). Removing a member re-homes only the IDs it owned. A
// Ring is immutable once built; tiers swap in a fresh one when their
// membership changes.
type Ring[M any] struct {
	points  []ringPoint // sorted by hash, then member index
	members []M
}

// ringPoint is one virtual node: a hash position owned by a member.
type ringPoint struct {
	h      uint64
	member int // index into Ring.members
}

// NewRing builds the ring over members, labeling member m's r-th
// virtual node vnode(m, r). Equal hashes order by member index, so
// callers that list members in one canonical order (shards by ID, nodes
// by node ID) get the same ring in every process.
func NewRing[M any](members []M, vnode func(m M, r int) string) *Ring[M] {
	r := &Ring[M]{members: members, points: make([]ringPoint, 0, len(members)*ringReplicas)}
	for i, m := range members {
		for v := 0; v < ringReplicas; v++ {
			r.points = append(r.points, ringPoint{h: placeHash(vnode(m, v)), member: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		pa, pb := r.points[a], r.points[b]
		return pa.h < pb.h || pa.h == pb.h && pa.member < pb.member
	})
	return r
}

// Owner returns the member owning id, or ok false on an empty ring.
// The binary search is hand-rolled so the admission path stays
// allocation-free.
func (r *Ring[M]) Owner(id string) (owner M, ok bool) {
	if len(r.points) == 0 {
		return owner, false
	}
	h := placeHash(id)
	lo, hi := 0, len(r.points)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.points[mid].h < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(r.points) {
		lo = 0
	}
	return r.members[r.points[lo].member], true
}

// placeHash is the placement hash: an inline allocation-free FNV-1a
// over the group ID, pushed through a splitmix64-style finalizer. Raw
// FNV-1a of sequential strings ("g1", "g2", "shard-0-1", "shard-0-2")
// yields near-sequential values — vnodes of one shard would cluster in
// a single band of the ring — so the avalanche step is load-bearing.
// Deliberately not seeded: placement must be identical across restarts
// so operators can reason about which shard owns a group.
func placeHash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
