package cluster

// The node placement ring: internal/shard's Ring over the serving
// peers, each contributing virtual nodes labeled "nodeID#i", so a group
// ID hashes the same way at both tiers and every node that shares the
// membership view computes the same owner. Node swaps a fresh ring in
// atomically on view changes, so the forwarding hot path reads
// lock-free.

import (
	"fmt"

	"brsmn/internal/shard"
)

// nodeRing maps group IDs to owning nodes via consistent hashing.
type nodeRing = shard.Ring[*peer]

// buildRing constructs the ring over the given members, in ID order
// (the ring's tie-break). An empty member list yields a ring whose
// owner lookups fail (callers fall back to local service).
func buildRing(members []*peer) *nodeRing {
	return shard.NewRing(members, func(p *peer, i int) string { return fmt.Sprintf("%s#%d", p.id, i) })
}

// rebuildRing recomputes the ring from the current serving view.
func (n *Node) rebuildRing() {
	n.ringMu.Lock()
	defer n.ringMu.Unlock()
	n.ring.Store(buildRing(n.servingPeers()))
}

// Owner reports which node the ring places a group ID on. Exposed for
// tests and the placement-stability property suite.
func (n *Node) Owner(id string) string {
	if p, ok := n.ring.Load().Owner(id); ok {
		return p.id
	}
	return n.cfg.Self
}
