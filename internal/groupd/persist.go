package groupd

// Durability glue between the Manager and internal/store.
//
// The contract is append-before-apply: every mutation (create, delete,
// join, leave, epoch advance, fault arm/clear) is written to the store
// before it becomes visible, so the store's durable prefix always
// dominates the in-memory state. Recovery is the inverse: load the
// latest snapshot, then replay the log suffix past the snapshot's LSN.
//
// Snapshots read the manager's high-water LSN *before* freezing state,
// so a mutation racing the snapshot may be captured by both the
// snapshot and the replayed log suffix. Replay is therefore idempotent:
// every record carries the generation it produced, and applyRecord
// skips records whose generation the restored state already reflects.

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"brsmn"
	"brsmn/internal/store"
)

// RecoveryStats describes what NewManager reconstructed from the
// durable store. Zero when the manager has no store or the store was
// empty.
type RecoveryStats struct {
	// SnapshotLoaded reports whether a snapshot seeded the recovery.
	SnapshotLoaded bool `json:"snapshotLoaded"`
	// Groups is the number of groups live after recovery.
	Groups int `json:"groups"`
	// Plans is the number of warm plan-cache entries restored from the
	// snapshot.
	Plans int `json:"plans"`
	// Records is the number of log records replayed past the snapshot.
	Records int `json:"records"`
	// Duration is the wall-clock recovery time.
	Duration time.Duration `json:"durationNs"`
}

// Recovery returns what NewManager reconstructed from the store.
func (m *Manager) Recovery() RecoveryStats { return m.recovered }

// RecoveredFaults returns the fault specs (faultd Fault.String() form)
// that were armed when the recovered state was persisted, deduplicated
// in arming order. The daemon re-arms them on its monitors at boot.
func (m *Manager) RecoveredFaults() []string {
	return append([]string(nil), m.recoveredFaults...)
}

// appendRecord logs rec ahead of applying its mutation. Managers
// without a store no-op; append failures come back wrapped in ErrStore
// so callers (and the API layer) can distinguish "storage broke" from
// domain errors.
func (m *Manager) appendRecord(rec store.Record) error {
	if m.cfg.Store == nil {
		return nil
	}
	lsn, err := m.cfg.Store.Append(rec)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrStore, err)
	}
	m.noteLSN(lsn)
	return nil
}

// noteLSN advances the manager's high-water LSN monotonically.
func (m *Manager) noteLSN(lsn uint64) {
	for {
		cur := m.lastLSN.Load()
		if lsn <= cur || m.lastLSN.CompareAndSwap(cur, lsn) {
			return
		}
	}
}

// JournalFault durably records that spec was armed on the fabric.
// Fault mutations are rare and operationally important, so each one is
// synced through to disk immediately. Best-effort: the armed faults are
// also carried by every snapshot.
func (m *Manager) JournalFault(spec string) {
	m.appendSynced(store.Record{Op: store.OpFaultInject, Fault: spec})
}

// JournalFaultClear durably records that all armed faults were cleared.
func (m *Manager) JournalFaultClear() {
	m.appendSynced(store.Record{Op: store.OpFaultClear})
}

func (m *Manager) appendSynced(rec store.Record) {
	if m.cfg.Store == nil {
		return
	}
	if lsn, err := m.cfg.Store.Append(rec); err == nil {
		m.noteLSN(lsn)
		_ = m.cfg.Store.Sync()
	}
}

// SnapshotNow writes a snapshot of the manager's full state to the
// store and truncates the log records it covers. Safe to call
// concurrently with mutations; see the idempotent-replay note above.
func (m *Manager) SnapshotNow() (store.SnapshotInfo, error) {
	if m.cfg.Store == nil {
		return store.SnapshotInfo{}, ErrNoStore
	}
	if m.closed.Load() {
		return store.SnapshotInfo{}, ErrClosed
	}
	return m.snapshotToStore()
}

func (m *Manager) snapshotToStore() (store.SnapshotInfo, error) {
	m.snapMu.Lock()
	defer m.snapMu.Unlock()
	start := time.Now()
	// Read the LSN before freezing state: a concurrent mutation may then
	// land in both the snapshot and the replayed suffix (deduped by
	// generation at replay), but never in neither.
	lsn := m.lastLSN.Load()
	snaps := m.snapshot()
	snap := store.Snapshot{LSN: lsn, Epoch: m.epochN.Load(), NextID: m.nextID.Load()}
	for _, sn := range snaps {
		snap.Groups = append(snap.Groups, store.GroupState{ID: sn.id, Source: sn.source, Gen: sn.gen, Members: sn.members})
		// Persist only healthy-fabric (pv 0) plans for the current
		// generation: a fresh boot starts at policy version 0, so these
		// are exactly the entries that can hit again.
		if e, ok := m.cache.peek(planKey{id: sn.id, gen: sn.gen, pv: 0}); ok {
			snap.Plans = append(snap.Plans, store.PlanState{ID: sn.id, Gen: sn.gen, Columns: e.columns, Blob: e.blob})
		}
	}
	if m.cfg.FaultSpecs != nil {
		snap.Faults = m.cfg.FaultSpecs()
	}
	n, err := m.cfg.Store.WriteSnapshot(snap)
	if err != nil {
		return store.SnapshotInfo{}, fmt.Errorf("groupd: write snapshot: %w", err)
	}
	if err := m.cfg.Store.Truncate(lsn); err != nil {
		return store.SnapshotInfo{}, fmt.Errorf("groupd: truncate log: %w", err)
	}
	return store.SnapshotInfo{
		LSN:        lsn,
		Groups:     len(snap.Groups),
		Plans:      len(snap.Plans),
		Bytes:      n,
		DurationNs: time.Since(start).Nanoseconds(),
	}, nil
}

// restore rebuilds the manager from the store: snapshot first, then the
// log suffix. Called from NewManager before the manager escapes, so it
// runs single-threaded and touches the registry maps directly.
func (m *Manager) restore() error {
	start := time.Now()
	snap, ok, err := m.cfg.Store.LoadSnapshot()
	if err != nil {
		return fmt.Errorf("groupd: load snapshot: %w", err)
	}
	if ok {
		m.recovered.SnapshotLoaded = true
		m.lastLSN.Store(snap.LSN)
		m.epochN.Store(snap.Epoch)
		m.nextID.Store(snap.NextID)
		m.recoveredFaults = append(m.recoveredFaults, snap.Faults...)
		for _, g := range snap.Groups {
			if err := m.restoreGroup(g.ID, g.Source, g.Gen, g.Members); err != nil {
				return err
			}
		}
		for _, p := range snap.Plans {
			m.cache.put(planKey{id: p.ID, gen: p.Gen, pv: 0}, p.Blob, p.Columns)
			m.recovered.Plans++
		}
	}
	recs, err := m.cfg.Store.Since(snap.LSN)
	if err != nil {
		return fmt.Errorf("groupd: read log: %w", err)
	}
	for _, rec := range recs {
		if err := m.applyRecord(rec); err != nil {
			return err
		}
		if rec.LSN > m.lastLSN.Load() {
			m.lastLSN.Store(rec.LSN)
		}
		m.recovered.Records++
	}
	m.reconcileNextID()
	m.recoveredFaults = dedupStrings(m.recoveredFaults)
	m.recovered.Groups = m.Count()
	m.recovered.Duration = time.Since(start)
	return nil
}

// restoreGroup rebuilds one session from persisted state. Only valid
// during restore (no locking).
func (m *Manager) restoreGroup(id string, source int, gen uint64, members []int) error {
	g, err := brsmn.NewGroup(m.cfg.N, source)
	if err != nil {
		return fmt.Errorf("groupd: restore %q: %w", id, err)
	}
	for _, d := range members {
		if err := g.Join(d); err != nil {
			return fmt.Errorf("groupd: restore %q member %d: %w", id, d, err)
		}
	}
	if gen == 0 {
		gen = 1
	}
	m.groups[id] = &session{id: id, group: g, gen: gen}
	return nil
}

// applyRecord replays one log record onto the restoring manager.
// Idempotent with respect to the snapshot: records whose generation the
// restored state already reflects are skipped, so the snapshot/suffix
// overlap window is harmless.
func (m *Manager) applyRecord(rec store.Record) error {
	switch rec.Op {
	case store.OpCreate:
		if _, ok := m.groups[rec.Group]; ok {
			return nil // already in the snapshot
		}
		return m.restoreGroup(rec.Group, rec.Source, rec.Gen, rec.Members)
	case store.OpJoin, store.OpLeave:
		s, ok := m.groups[rec.Group]
		if !ok || rec.Gen <= s.gen {
			return nil
		}
		// The op validated when first applied; errors here can only mean
		// the snapshot already reflects it, so the generation is what
		// matters.
		if rec.Op == store.OpJoin {
			_ = s.group.Join(rec.Dest)
		} else {
			_ = s.group.Leave(rec.Dest)
		}
		s.gen = rec.Gen
	case store.OpDelete:
		if s, ok := m.groups[rec.Group]; ok && rec.Gen >= s.gen {
			delete(m.groups, rec.Group)
		}
	case store.OpEpoch:
		if rec.Epoch > m.epochN.Load() {
			m.epochN.Store(rec.Epoch)
		}
	case store.OpFaultInject:
		m.recoveredFaults = append(m.recoveredFaults, rec.Fault)
	case store.OpFaultClear:
		m.recoveredFaults = m.recoveredFaults[:0]
	}
	return nil
}

// reconcileNextID advances the auto-ID counter past every recovered
// "g<k>" ID, so post-recovery auto-assignment never collides.
func (m *Manager) reconcileNextID() {
	max := m.nextID.Load()
	for id := range m.groups {
		rest, ok := strings.CutPrefix(id, "g")
		if !ok {
			continue
		}
		if k, err := strconv.ParseUint(rest, 10, 64); err == nil && k > max {
			max = k
		}
	}
	m.nextID.Store(max)
}

func dedupStrings(in []string) []string {
	if len(in) < 2 {
		return in
	}
	seen := make(map[string]struct{}, len(in))
	out := in[:0]
	for _, s := range in {
		if _, ok := seen[s]; ok {
			continue
		}
		seen[s] = struct{}{}
		out = append(out, s)
	}
	return out
}
