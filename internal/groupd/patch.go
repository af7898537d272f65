package groupd

// Incremental plan patching for the serving path. A Plan cache miss is
// usually a group that moved one or two generations since it was last
// planned; rerouting it from scratch repeats O(n log^2 n) work whose
// inputs barely changed. The manager therefore retains one dedicated
// planner holding the most recently served group's full route and, when
// the next miss is for the same group only a few generations later,
// replays the pending joins/leaves from the session's change ring as
// core.RoutePatch calls — O(log n) switch columns per change when the
// change sits deep in the tag tree — and re-encodes the patched result.
// Any mismatch (different group, ring overrun, structural change, a
// fault policy that filtered the assignment or moved its version) falls
// back to a full replan, which also re-seeds the retained route so the
// next miss can patch again.

import (
	"sync"
	"time"

	"brsmn/internal/core"
	"brsmn/internal/fabric"
	"brsmn/internal/mcast"
	"brsmn/internal/plancodec"
)

// chgRing is the per-session change-ring depth: how many generations of
// membership history a session keeps for the patch path to replay. It
// caps Config.PatchThreshold.
const chgRing = 16

// memberChange is one recorded join/leave: the generation it produced
// and the destination it moved.
type memberChange struct {
	gen  uint64
	dest int32
	join bool
}

// patchState is the manager's retained incremental route: a dedicated
// planner (never pooled, so its arenas and retained levels survive
// between Plan calls) plus the identity of the route it holds. The
// session is compared by pointer, so a deleted-and-recreated group can
// never inherit a stale route under a reused ID. The mutex is only ever
// TryLock'd: a second concurrent miss replans through the pool instead
// of queueing behind the patcher.
type patchState struct {
	mu   sync.Mutex
	pl   *core.Planner
	sess *session
	gen  uint64
	pv   uint64 // policy version the route was planned under
	ok   bool   // pl holds a verified route of sess at gen
}

// replanOrPatch serves a Plan cache miss: by incremental patches when
// the retained route can be rolled forward to (s, gen), by a full
// replan otherwise.
func (m *Manager) replanOrPatch(s *session, gen uint64, source int, members []int, chg *[chgRing]memberChange) ([]byte, int, error) {
	ps := &m.patch
	if m.cfg.PatchThreshold <= 0 || !ps.mu.TryLock() {
		return m.replan(s.id, source, members)
	}
	defer ps.mu.Unlock()
	if blob, cols, ok := m.tryPatch(ps, s, gen, source, chg); ok {
		return blob, cols, nil
	}
	if m.tracer.ShouldSample(s.id) {
		// Keep sampled replans on the traced pool path; the retained
		// route stays where it is and can still patch a later miss.
		return m.replan(s.id, source, members)
	}

	// Full route on the dedicated planner, so the next miss for this
	// group starts from a patchable state.
	start := time.Now()
	dests := make([][]int, m.cfg.N)
	dests[source] = members
	a, err := mcast.New(m.cfg.N, dests)
	if err != nil {
		return nil, 0, err
	}
	// A fault policy that actually rewrites the assignment makes the
	// route unpatchable: RoutePatch replays raw membership changes and
	// knows nothing about quarantined ports. With no believed faults the
	// filter is the identity and patching stays sound for as long as the
	// policy version — read before filtering, so a detection racing this
	// route can only make the retained state look stale, never fresh —
	// is unchanged.
	pv, patchable := uint64(0), true
	if m.cfg.Policy != nil {
		pv = m.cfg.Policy.Version()
		filtered, rejected := m.cfg.Policy.FilterAssignment(a)
		patchable = rejected == nil && sameAssignment(a, filtered)
		a = filtered
	}
	if ps.pl == nil {
		if ps.pl, err = core.NewPlanner(m.cfg.N); err != nil {
			return nil, 0, err
		}
	}
	ps.ok = false
	res, err := ps.pl.Route(a)
	if err != nil {
		return nil, 0, err
	}
	blob, cols, err := m.flattenEncode(res)
	if err != nil {
		return nil, 0, err
	}
	ps.sess, ps.gen, ps.pv, ps.ok = s, gen, pv, patchable
	if m.met != nil {
		m.met.patchFull.Inc()
		m.met.replans.Inc()
		m.met.replanDur.ObserveDuration(time.Since(start))
	}
	return blob, cols, nil
}

// tryPatch rolls the retained route forward from ps.gen to gen by
// replaying the session's change ring, and re-encodes the patched
// configuration. A false return means the caller must replan fully;
// the retained route is marked invalid if it was touched.
func (m *Manager) tryPatch(ps *patchState, s *session, gen uint64, source int, chg *[chgRing]memberChange) ([]byte, int, bool) {
	if !ps.ok || ps.sess != s || gen <= ps.gen || gen-ps.gen > uint64(m.cfg.PatchThreshold) ||
		ps.pv != m.policyVersion() {
		return nil, 0, false
	}
	start := time.Now()
	var res *core.Result
	for g := ps.gen + 1; g <= gen; g++ {
		c := chg[g%chgRing]
		if c.gen != g {
			// The ring wrapped past this generation (or the session was
			// restored without history): the delta is unreplayable.
			ps.ok = false
			return nil, 0, false
		}
		r, lvl, err := ps.pl.RoutePatch(source, int(c.dest), c.join)
		if err != nil {
			// ErrPatchFallback (structural change) or a routing error
			// mid-replay; either way the full replan rebuilds the state.
			ps.ok = false
			return nil, 0, false
		}
		res = r
		if m.met != nil {
			m.met.patchLevel.Observe(float64(lvl))
		}
	}
	delta := gen - ps.gen
	ps.gen = gen
	blob, cols, err := m.flattenEncode(res)
	if err != nil {
		ps.ok = false
		return nil, 0, false
	}
	if m.met != nil {
		m.met.patched.Inc()
		m.met.patchDelta.Observe(float64(delta))
		m.met.patchDur.ObserveDuration(time.Since(start))
	}
	return blob, cols, true
}

// sameAssignment reports whether a fault policy's filter left the
// assignment intact — same size and byte-for-byte equal destination
// sets. O(total destinations), negligible next to the full route it
// gates.
func sameAssignment(a, b mcast.Assignment) bool {
	if a.N != b.N || len(a.Dests) != len(b.Dests) {
		return false
	}
	for i := range a.Dests {
		if len(a.Dests[i]) != len(b.Dests[i]) {
			return false
		}
		for j := range a.Dests[i] {
			if a.Dests[i][j] != b.Dests[i][j] {
				return false
			}
		}
	}
	return true
}

// flattenEncode turns a routed result into the cached plan form:
// physical columns, then the plancodec blob. Identical inputs encode
// identically, so a patched route and a full replan of the same
// membership produce byte-equal blobs.
func (m *Manager) flattenEncode(res *core.Result) ([]byte, int, error) {
	cols, err := fabric.Flatten(res)
	if err != nil {
		return nil, 0, err
	}
	blob, err := plancodec.Encode(m.cfg.N, cols)
	if err != nil {
		return nil, 0, err
	}
	return blob, len(cols), nil
}
