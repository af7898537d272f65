package groupd

// The one plan-miss path. A Plan cache miss is usually a group that
// moved one or two generations since it was last planned; rerouting it
// from scratch repeats O(n log^2 n) work whose inputs barely changed.
// The manager therefore keeps one plan planner holding the most
// recently planned group's full route and, when the next miss is for
// the same group only a few generations later, replays the pending
// joins/leaves from the session's change ring as core.RoutePatch calls
// — O(log n) switch columns per change when the change sits deep in the
// tag tree — and re-encodes the patched result. Any mismatch (different
// group, ring overrun, structural change, a fault policy that filtered
// the assignment or moved its version) falls back to a full route on the
// same planner, which re-seeds the retained route so the next miss can
// patch again. Plan and the epoch's per-group refresh both come here;
// the epoch's full routes run on its own planner.

import (
	"sync"
	"sync/atomic"
	"time"

	"brsmn/internal/core"
	"brsmn/internal/fabric"
	"brsmn/internal/mcast"
	"brsmn/internal/obs"
	"brsmn/internal/plancodec"
)

const (
	// chgRing is the per-session change-ring depth: how many generations
	// of membership history a session keeps for the patch path to replay.
	chgRing = 16
	// patchThreshold is how many generations past the retained route a
	// miss may be and still be patched rather than routed in full.
	patchThreshold = 8
)

// memberChange is one recorded join/leave: the generation it produced
// and the destination it moved.
type memberChange struct {
	gen  uint64
	dest int32
	join bool
}

// patchState is the manager's plan planner plus the identity of the
// route it retains. The session is compared by pointer, so a
// deleted-and-recreated group can never inherit a stale route under a
// reused ID. mu covers everything but sess, which is written under mu
// and also read without it: a miss for a group whose route is not
// retained skips mu for its patch check, so an epoch refresh never
// waits behind a serving route it could not use.
type patchState struct {
	mu   sync.Mutex
	pl   *core.Planner // built on the first full route on it
	sess atomic.Pointer[session]
	gen  uint64
	pv   uint64 // policy version the route was planned under
	ok   bool   // pl holds a verified, unfiltered route of sess at gen
}

// planOf returns s's plan at gen: from the plan cache when it holds
// one at the current policy version, else by a patch of the plan
// planner's retained route when that route is s's, else by a full
// route. A made plan is flattened, encoded and cached. members is s's
// member list at gen (an epoch snapshot's), or nil for a full route to
// read the session's current generation and members. pl is the planner
// a full route runs on: nil for the plan planner, which then retains
// the route for later patches; the epoch passes its own planner, so its
// full refreshes and the serving misses route in parallel.
func (m *Manager) planOf(s *session, gen uint64, members []int, pl *core.Planner) (PlanInfo, error) {
	// The version is read before anything is filtered, so a detection
	// racing this plan can only key it under the older version, never
	// store an old-version plan under the newer key.
	pv := m.policyVersion()
	if e, ok := m.cache.get(planKey{id: s.id, gen: gen, pv: pv}); ok {
		return PlanInfo{ID: s.id, Gen: gen, Cached: true, Columns: e.columns, Blob: e.blob}, nil
	}
	blob, cols, ok := m.tryPatch(s, gen, pv)
	if !ok {
		if members == nil {
			s.mu.Lock()
			gen, members = s.gen, s.group.Members() // key what is routed
			s.mu.Unlock()
		}
		var err error
		if blob, cols, err = m.routeFull(s, gen, pv, members, pl); err != nil {
			return PlanInfo{}, err
		}
	}
	m.cache.put(planKey{id: s.id, gen: gen, pv: pv}, blob, cols)
	return PlanInfo{ID: s.id, Gen: gen, Columns: cols, Blob: blob}, nil
}

// routeFull routes s's members at gen from scratch — filtered around
// believed faults when a policy is set, traced when the tracer samples
// s — on pl, or with pl nil on the plan planner, which retains the
// route for later patches.
func (m *Manager) routeFull(s *session, gen, pv uint64, members []int, pl *core.Planner) ([]byte, int, error) {
	start := time.Now()
	dests := make([][]int, m.cfg.N)
	dests[s.group.Source()] = members // the source is fixed at creation
	a, err := mcast.New(m.cfg.N, dests)
	if err != nil {
		return nil, 0, err
	}
	// A fault policy that actually rewrites the assignment makes the
	// route unpatchable: RoutePatch replays raw membership changes and
	// knows nothing about quarantined ports. With no believed faults the
	// filter is the identity and patching stays sound for as long as the
	// policy version is unchanged.
	patchable := true
	if m.cfg.Policy != nil {
		filtered, rejected := m.cfg.Policy.FilterAssignment(a)
		patchable = rejected == nil && sameAssignment(a, filtered)
		a = filtered
	}
	ps, retain := &m.patch, pl == nil
	if retain {
		ps.mu.Lock()
		defer ps.mu.Unlock()
		if ps.pl == nil {
			if ps.pl, err = core.NewPlanner(m.cfg.N); err != nil {
				return nil, 0, err
			}
		}
		pl, ps.ok = ps.pl, false
	}
	var tr *obs.RouteTrace
	if m.tracer.ShouldSample(s.id) {
		tr = &obs.RouteTrace{Key: s.id}
	}
	res, err := pl.RouteTraced(a, tr)
	if err != nil {
		return nil, 0, err
	}
	blob, cols, err := m.flattenEncode(res, tr)
	if err != nil {
		return nil, 0, err
	}
	if tr != nil {
		m.tracer.Record(tr)
	}
	if retain {
		ps.sess.Store(s)
		ps.gen, ps.pv, ps.ok = gen, pv, patchable
	}
	if m.met != nil {
		m.met.patchFull.Inc()
		m.met.replans.Inc()
		m.met.replanDur.ObserveDuration(time.Since(start))
	}
	return blob, cols, nil
}

// tryPatch rolls the plan planner's retained route forward from ps.gen
// to gen by replaying the session's change ring, and re-encodes the
// patched configuration. A false return means the caller must route in
// full; the retained route is marked invalid if it was touched.
func (m *Manager) tryPatch(s *session, gen, pv uint64) ([]byte, int, bool) {
	ps := &m.patch
	if ps.sess.Load() != s {
		return nil, 0, false
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if !ps.ok || ps.sess.Load() != s || ps.pv != pv || gen <= ps.gen || gen-ps.gen > patchThreshold {
		return nil, 0, false
	}
	start := time.Now()
	s.mu.Lock()
	chg := s.chg
	s.mu.Unlock()
	source := s.group.Source()
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
			// mid-replay; either way the full route rebuilds the state.
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
	blob, cols, err := m.flattenEncode(res, nil)
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
// identically, so a patched route and a full route of the same
// membership produce byte-equal blobs. A non-nil tr gains the flatten
// and encode stages and the column count.
func (m *Manager) flattenEncode(res *core.Result, tr *obs.RouteTrace) ([]byte, int, error) {
	tFlatten := time.Now()
	cols, err := fabric.Flatten(res)
	if err != nil {
		return nil, 0, err
	}
	tEncode := time.Now()
	blob, err := plancodec.Encode(m.cfg.N, cols)
	if err != nil {
		return nil, 0, err
	}
	if tr != nil {
		tr.AddStage("flatten", tEncode.Sub(tFlatten))
		tr.AddStage("encode", time.Since(tEncode))
		tr.Columns = len(cols)
	}
	return blob, len(cols), nil
}
