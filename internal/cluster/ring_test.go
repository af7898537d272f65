package cluster

import (
	"fmt"
	"testing"
)

// testPeers builds n peers named n0..n(n-1), all up.
func testPeers(n int) []*peer {
	ps := make([]*peer, n)
	for i := range ps {
		ps[i] = &peer{id: fmt.Sprintf("n%d", i)}
		ps[i].setState(peerUp)
	}
	return ps
}

// owners maps group IDs to their ring owner.
func owners(r *nodeRing, ids []string) map[string]string {
	out := make(map[string]string, len(ids))
	for _, id := range ids {
		p, _ := r.Owner(id)
		out[id] = p.id
	}
	return out
}

func groupIDs(count int) []string {
	ids := make([]string, count)
	for i := range ids {
		ids[i] = fmt.Sprintf("group-%06d", i)
	}
	return ids
}

// TestRingStability is the placement-stability property: growing or
// shrinking an N-node ring by one node re-homes only about 1/N (resp.
// 1/(N+1)) of group IDs — the consistent-hashing contract cluster
// drain and join rely on to keep migration traffic proportional.
func TestRingStability(t *testing.T) {
	const groups = 20000
	ids := groupIDs(groups)
	for _, n := range []int{2, 3, 5, 8} {
		peers := testPeers(n + 1)
		small := buildRing(peers[:n])
		big := buildRing(peers)
		before := owners(small, ids)
		after := owners(big, ids)

		moved := 0
		for id, owner := range after {
			if owner != before[id] {
				moved++
				// Every re-homed group must land on the new node; anything
				// else is unnecessary movement.
				if owner != peers[n].id {
					t.Fatalf("N=%d: %s moved %s -> %s, not to the joining node", n, id, before[id], owner)
				}
			}
		}
		ideal := float64(groups) / float64(n+1)
		frac := float64(moved) / float64(groups)
		t.Logf("N=%d->%d: moved %d/%d (%.3f, ideal %.3f)", n, n+1, moved, groups, frac, 1/float64(n+1))
		if moved == 0 {
			t.Fatalf("N=%d: no groups moved to the new node", n)
		}
		// With 64 vnodes per node the observed share stays within ~2x of
		// ideal; a gross violation means the ring hash or construction
		// broke.
		if float64(moved) > 2*ideal {
			t.Fatalf("N=%d: moved %d groups, more than 2x the ideal %.0f", n, moved, ideal)
		}
	}
}

// TestRingDrainMovesOnlyVictims checks the reverse transition: removing
// one node re-homes exactly the groups it owned and nothing else.
func TestRingDrainMovesOnlyVictims(t *testing.T) {
	ids := groupIDs(10000)
	peers := testPeers(4)
	full := buildRing(peers)
	drained := buildRing(append(append([]*peer{}, peers[:2]...), peers[3])) // drop n2
	before := owners(full, ids)
	after := owners(drained, ids)
	for id, owner := range before {
		if owner == "n2" {
			if after[id] == "n2" {
				t.Fatalf("%s still owned by the drained node", id)
			}
			continue
		}
		if after[id] != owner {
			t.Fatalf("%s moved %s -> %s though its owner did not drain", id, owner, after[id])
		}
	}
}

// TestRingDeterminism checks two rings built from the same membership
// agree on every placement — the property that lets each node compute
// ownership locally.
func TestRingDeterminism(t *testing.T) {
	ids := groupIDs(5000)
	a := buildRing(testPeers(5))
	b := buildRing(testPeers(5))
	for _, id := range ids {
		pa, _ := a.Owner(id)
		pb, _ := b.Owner(id)
		if pa.id != pb.id {
			t.Fatalf("rings disagree on %s: %s vs %s", id, pa.id, pb.id)
		}
	}
}

// TestRingEmpty checks owner lookups on an empty ring report no owner
// (callers fall back to local service).
func TestRingEmpty(t *testing.T) {
	if _, ok := buildRing(nil).Owner("g"); ok {
		t.Fatal("empty ring returned an owner")
	}
}

func TestGroupIDFromPath(t *testing.T) {
	cases := []struct {
		path string
		id   string
		ok   bool
	}{
		{"/v1/groups/conf", "conf", true},
		{"/v1/groups/conf/plan", "conf", true},
		{"/v1/groups/conf/join", "conf", true},
		{"/v1/groups/conf/leave", "conf", true},
		{"/v1/groups", "", false},
		{"/v1/groups/", "", false},
		{"/v1/groups/conf/nope", "", false},
		{"/v1/groups//join", "", false},
		{"/v1/route", "", false},
		{"/v1/cluster/node", "", false},
	}
	for _, c := range cases {
		id, ok := groupIDFromPath(c.path)
		if id != c.id || ok != c.ok {
			t.Errorf("groupIDFromPath(%q) = (%q, %v), want (%q, %v)", c.path, id, ok, c.id, c.ok)
		}
	}
}
