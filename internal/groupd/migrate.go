package groupd

// Group migration primitives — the manager-level half of cluster drain.
//
// A draining node exports its groups in the PR 6 snapshot vocabulary
// (store.GroupState + store.PlanState, warm current-generation plan
// blobs included) and the gaining node installs them, so a migrated
// group arrives with its generation intact and its first Plan request
// is a warm, byte-identical cache hit. Both halves are durable on
// managers with a store: Install appends the same create/delete records
// a snapshot replay would produce, and the gen-guarded delete on the
// losing side closes the export-vs-mutation race without distributed
// locking.

import (
	"errors"
	"fmt"
	"slices"

	"brsmn"
	"brsmn/internal/store"
)

// ErrGenMismatch reports a gen-guarded delete that lost a race with a
// concurrent mutation: the group's generation moved past the exported
// one, so the caller must re-export and retry.
var ErrGenMismatch = errors.New("groupd: generation changed since export")

// Export freezes every registered group into snapshot form, paired with
// its warm current-generation healthy-fabric plan when the cache holds
// one (plans[i] is nil otherwise). The two slices are index-aligned.
// Each Members slice is the session's shared list and must not be
// modified.
func (m *Manager) Export() ([]store.GroupState, []*store.PlanState) {
	snaps := m.snapshot()
	groups := make([]store.GroupState, 0, len(snaps))
	plans := make([]*store.PlanState, 0, len(snaps))
	for _, sn := range snaps {
		groups = append(groups, store.GroupState{ID: sn.id, Source: sn.source, Gen: sn.gen, Members: sn.members})
		plans = append(plans, m.peekPlan(sn.id, sn.gen))
	}
	return groups, plans
}

// ExportGroup freezes one group (plan may be nil); used to re-export
// after a gen-guarded delete reports a racing mutation.
func (m *Manager) ExportGroup(id string) (store.GroupState, *store.PlanState, error) {
	s, err := m.sessionFor(id)
	if err != nil {
		return store.GroupState{}, nil, err
	}
	s.mu.Lock()
	if s.gone {
		s.mu.Unlock()
		return store.GroupState{}, nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	g := store.GroupState{ID: s.id, Source: s.group.Source(), Gen: s.gen, Members: s.group.Members()}
	s.mu.Unlock()
	return g, m.peekPlan(g.ID, g.Gen), nil
}

// peekPlan harvests the warm healthy-fabric (pv 0) plan for (id, gen)
// without skewing cache stats or recency — the same entry a snapshot
// would carry.
func (m *Manager) peekPlan(id string, gen uint64) *store.PlanState {
	if e, ok := m.cache.peek(planKey{id: id, gen: gen, pv: 0}); ok {
		return &store.PlanState{ID: id, Gen: gen, Columns: e.columns, Blob: e.blob}
	}
	return nil
}

// Install registers a migrated group with its generation intact,
// seeding the plan cache with its warm blob when one travelled along.
// If the group already exists locally, the higher generation wins: an
// incoming gen <= the local one is a no-op (the local copy is at least
// as fresh), a higher one replaces the local copy. Durable managers log
// the same delete/create records a replayed drain would need.
func (m *Manager) Install(g store.GroupState, plan *store.PlanState) error {
	if m.closed.Load() {
		return ErrClosed
	}
	gen := g.Gen
	if gen == 0 {
		gen = 1
	}
	ng, err := brsmn.NewGroup(m.cfg.N, g.Source)
	if err != nil {
		return fmt.Errorf("groupd: install %q: %w", g.ID, err)
	}
	for _, d := range g.Members {
		if err := ng.Join(d); err != nil {
			return fmt.Errorf("groupd: install %q member %d: %w", g.ID, d, err)
		}
	}
	m.regMu.Lock()
	if old, ok := m.groups[g.ID]; ok {
		old.mu.Lock()
		oldGen := old.gen
		if gen <= oldGen {
			// Local copy is at least as fresh; keep it. Still seed the
			// plan when the copies agree: equal generations can hold
			// different members when two copies diverged, and the
			// other copy's plan would then route the wrong set.
			same := gen == oldGen && old.group.Source() == g.Source && slices.Equal(old.group.Members(), g.Members)
			old.mu.Unlock()
			m.regMu.Unlock()
			if plan != nil && same {
				m.installPlan(g.ID, gen, plan)
			}
			return nil
		}
		// Replace: log the supersession so replay reproduces it.
		if err := m.appendRecord(store.Record{Op: store.OpDelete, Group: g.ID, Gen: oldGen}); err != nil {
			old.mu.Unlock()
			m.regMu.Unlock()
			return err
		}
		old.gone = true
		old.mu.Unlock()
		delete(m.groups, g.ID)
		m.cache.invalidate(planKey{id: g.ID, gen: oldGen, pv: m.policyVersion()})
	}
	if err := m.appendRecord(store.Record{Op: store.OpCreate, Group: g.ID, Source: g.Source, Gen: gen, Members: g.Members}); err != nil {
		m.regMu.Unlock()
		return err
	}
	m.groups[g.ID] = &session{id: g.ID, group: ng, gen: gen}
	m.regMu.Unlock()
	if plan != nil {
		m.installPlan(g.ID, gen, plan)
	}
	m.noteChange(1 + len(g.Members))
	return nil
}

// installPlan seeds the cache with a migrated warm plan under the
// healthy-fabric version — the same key snapshot recovery uses, so a
// clean fabric's first Plan after migration is a byte-identical hit.
func (m *Manager) installPlan(id string, gen uint64, plan *store.PlanState) {
	m.cache.put(planKey{id: id, gen: gen, pv: 0}, plan.Blob, plan.Columns)
}

// DeleteIfGen unregisters the group only if its generation still equals
// gen — the losing side of a migration. ErrGenMismatch means a mutation
// landed after the export; the caller re-exports and retries, so the
// transferred copy never silently drops a write.
func (m *Manager) DeleteIfGen(id string, gen uint64) error {
	if m.closed.Load() {
		return ErrClosed
	}
	m.regMu.Lock()
	s, ok := m.groups[id]
	if !ok {
		m.regMu.Unlock()
		return fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	s.mu.Lock()
	if s.gen != gen {
		cur := s.gen
		s.mu.Unlock()
		m.regMu.Unlock()
		return fmt.Errorf("%w: %q at gen %d, exported %d", ErrGenMismatch, id, cur, gen)
	}
	if err := m.appendRecord(store.Record{Op: store.OpDelete, Group: id, Gen: gen}); err != nil {
		s.mu.Unlock()
		m.regMu.Unlock()
		return err
	}
	s.gone = true
	s.mu.Unlock()
	delete(m.groups, id)
	m.regMu.Unlock()
	m.cache.invalidate(planKey{id: id, gen: gen, pv: m.policyVersion()})
	m.noteChange(1)
	return nil
}
