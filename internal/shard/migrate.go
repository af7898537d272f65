package shard

// Set-level migration primitives — the serving-layer half of cluster
// drain. The cluster tier (internal/cluster) moves groups between
// *processes* with the same snapshot vocabulary the durable store uses;
// these methods fan the per-group export/install/gen-guarded-delete
// calls onto the owning local shard. They bypass the admission queues:
// migrations are rare, placement-read-locked operations. Moves between
// local shards (Set.rebalanceLocked) use the same per-manager triple.

import (
	"brsmn/internal/store"
)

// Export freezes every group on every shard into snapshot form with its
// warm current-generation plan when cached (nil otherwise); the slices
// are index-aligned. The placement read lock is held so a concurrent
// rebalance never splits a group across the two slices.
func (s *Set) Export() ([]store.GroupState, []*store.PlanState) {
	s.placeMu.RLock()
	defer s.placeMu.RUnlock()
	var groups []store.GroupState
	var plans []*store.PlanState
	for _, sh := range s.shards {
		g, p := sh.gm.Export()
		groups = append(groups, g...)
		plans = append(plans, p...)
	}
	return groups, plans
}

// ExportGroup freezes one group from its owning shard.
func (s *Set) ExportGroup(id string) (store.GroupState, *store.PlanState, error) {
	s.placeMu.RLock()
	defer s.placeMu.RUnlock()
	if s.closed {
		return store.GroupState{}, nil, ErrClosed
	}
	sh, err := s.locate(id)
	if err != nil {
		return store.GroupState{}, nil, err
	}
	return sh.gm.ExportGroup(id)
}

// Install registers a migrated group (generation and warm plan intact)
// on its local placement shard. Higher generation wins on collision —
// see groupd.Manager.Install.
func (s *Set) Install(g store.GroupState, plan *store.PlanState) error {
	s.placeMu.RLock()
	defer s.placeMu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	sh, err := s.locate(g.ID)
	if err != nil {
		return err
	}
	return sh.gm.Install(g, plan)
}

// DeleteIfGen unregisters the group from its owning shard only if its
// generation still equals gen (groupd.ErrGenMismatch otherwise).
func (s *Set) DeleteIfGen(id string, gen uint64) error {
	s.placeMu.RLock()
	defer s.placeMu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	sh, err := s.locate(id)
	if err != nil {
		return err
	}
	if err := sh.gm.DeleteIfGen(id, gen); err != nil {
		return err
	}
	s.migrations.Add(1)
	return nil
}
