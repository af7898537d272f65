package groupd

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"brsmn/internal/core"
	"brsmn/internal/sched"
	"brsmn/internal/store"
)

// RoundReport is one conflict-free round of an epoch: the groups it
// carries and the resulting per-output delivery vector (the source input
// delivered at each output, -1 idle). A round reused from the previous
// epoch shares that epoch's Deliveries slice, so reports are read-only.
type RoundReport struct {
	GroupIDs   []string `json:"groupIds"`
	Deliveries []int    `json:"deliveries"`
	// Rejected lists the output ports the fault policy excluded from
	// this round (sorted); empty on a healthy fabric.
	Rejected []int `json:"rejected,omitempty"`
}

// EpochReport summarizes one reroute epoch.
type EpochReport struct {
	Epoch    int64         `json:"epoch"`
	When     time.Time     `json:"when"`
	Duration time.Duration `json:"durationNs"`
	// Groups is the number of non-empty groups routed this epoch.
	Groups int `json:"groups"`
	// Fanout is the total (source, output) connection count.
	Fanout int           `json:"fanout"`
	Rounds []RoundReport `json:"rounds"`
	Cache  CacheStats    `json:"cache"`
	// Quarantined is the total output-port count the fault policy
	// rejected across this epoch's rounds; DegradedRounds counts the
	// rounds it touched.
	Quarantined    int `json:"quarantined,omitempty"`
	DegradedRounds int `json:"degradedRounds,omitempty"`
	// Err carries a failed background epoch's error; empty on success.
	Err string `json:"err,omitempty"`
}

// roundMemo is the previous epoch's healthy routed rounds, keyed by
// round content (see roundKey) and valid only at one fault-policy
// version. RunEpoch replaces it wholesale every epoch, so it never
// holds more than one epoch's rounds; epochMu guards it.
type roundMemo struct {
	version uint64
	rows    map[string]memoRow // round content -> routed row
	key     []byte             // roundKey scratch, reused across epochs
}

// memoRow is one memoized round. It keeps its key string so the next
// epoch's memo can hold a reused round under the same string instead of
// allocating a new one.
type memoRow struct {
	key        string
	deliveries []int
}

// RunEpoch executes one reroute epoch synchronously: snapshot the live
// groups, partition them into conflict-free rounds, route every round
// the previous epoch did not already route (one after the other on the
// epoch planner), and refresh the plan cache through the one plan-miss
// path — changed groups patch or replan, the rest hit. Epochs are
// serialized; membership changes landing mid-epoch count toward the
// next one.
func (m *Manager) RunEpoch() (*EpochReport, error) {
	if m.closed.Load() {
		return nil, ErrClosed
	}
	m.epochMu.Lock()
	defer m.epochMu.Unlock()
	if m.closed.Load() { // Close released the memo while we waited
		return nil, ErrClosed
	}
	start := time.Now()
	m.pending.Store(0)
	return m.epochOver(start, m.snapshot())
}

// epochOver runs the epoch body over a frozen snapshot; the caller
// holds epochMu.
//
// The schedule always covers every live group, so the report lists the
// same rounds a full sweep would. Routing is incremental: a round whose
// content the previous epoch routed, at the same policy version and
// without rejections, reuses that epoch's deliveries. The router and a
// filter that rejects nothing are both deterministic, so the reused row
// is the row a fresh routing would produce. Degraded rounds are never
// memoized: the policy's filter keeps counters and a quarantined set,
// so they re-filter and re-route every epoch.
func (m *Manager) epochOver(start time.Time, snaps []groupSnapshot) (*EpochReport, error) {
	live := snaps[:0]
	for _, sn := range snaps {
		if len(sn.members) > 0 {
			live = append(live, sn)
		}
	}
	reqs := make([]sched.Request, len(live))
	for i, sn := range live {
		reqs[i] = sched.Request{Source: sn.source, Dests: sn.members}
	}
	roundIdx, err := sched.ScheduleIndices(m.cfg.N, reqs)
	if err != nil {
		return nil, fmt.Errorf("groupd: epoch scheduling: %w", err)
	}

	pv := m.policyVersion()
	prev := m.memo.rows
	if m.memo.version != pv {
		prev = nil
	}
	next := make(map[string]memoRow, len(roundIdx))
	rep := &EpochReport{
		When:   start,
		Groups: len(live),
		Rounds: make([]RoundReport, len(roundIdx)),
	}
	ids := make([]string, len(live)) // every round's GroupIDs, carved in round order
	var (
		key        = m.memo.key
		missIdx    []int    // rounds to route, by report index
		missKeys   []string // their content keys
		missRounds [][]sched.Request
	)
	for r, members := range roundIdx {
		rids := ids[:len(members):len(members)]
		ids = ids[len(members):]
		for i, k := range members {
			rids[i] = live[k].id
		}
		rep.Rounds[r].GroupIDs = rids
		key = roundKey(key[:0], reqs, members)
		if row, ok := prev[string(key)]; ok {
			rep.Rounds[r].Deliveries = row.deliveries
			next[row.key] = row
			continue
		}
		round := make([]sched.Request, len(members))
		for i, k := range members {
			round[i] = reqs[k]
		}
		missIdx = append(missIdx, r)
		missKeys = append(missKeys, string(key))
		missRounds = append(missRounds, round)
	}

	if len(missRounds) > 0 {
		as, err := sched.Assignments(m.cfg.N, missRounds)
		if err != nil {
			return nil, fmt.Errorf("groupd: epoch round assembly: %w", err)
		}
		// Quarantine is a per-round decision: whether a connection
		// survives a fault depends on the whole round's switch
		// settings, so the policy filters each combined assignment,
		// not each group.
		rejected := make([][]int, len(as))
		if m.cfg.Policy != nil {
			for i := range as {
				as[i], rejected[i] = m.cfg.Policy.FilterAssignment(as[i])
			}
		}
		if m.epochPl == nil {
			if m.epochPl, err = core.NewPlanner(m.cfg.N); err != nil {
				return nil, err
			}
		}
		// The result aliases the planner, so each round's deliveries
		// are read out before the next round routes over them.
		for i, a := range as {
			r := missIdx[i]
			res, err := m.epochPl.Route(a)
			if err != nil {
				return nil, fmt.Errorf("groupd: epoch round %d: %w", r, err)
			}
			vec := make([]int, m.cfg.N)
			for out, d := range res.Deliveries {
				vec[out] = d.Source
			}
			rr := &rep.Rounds[r]
			rr.Deliveries, rr.Rejected = vec, rejected[i]
			if len(rr.Rejected) > 0 {
				rep.Quarantined += len(rr.Rejected)
				rep.DegradedRounds++
				continue
			}
			next[missKeys[i]] = memoRow{key: missKeys[i], deliveries: vec}
		}
	}
	m.memo = roundMemo{version: pv, rows: next, key: key}

	// Every live group sits in a round, and every round was routed on
	// the epoch planner this epoch or when it entered the memo, so the
	// planner exists here.
	for _, sn := range live {
		rep.Fanout += len(sn.members)
		if _, err := m.planOf(sn.s, sn.gen, sn.members, m.epochPl); err != nil {
			return nil, fmt.Errorf("groupd: epoch plan for %q: %w", sn.id, err)
		}
	}
	rep.Epoch = m.epochN.Add(1)
	// An epoch boundary doubles as a durability barrier: record the
	// advance and sync the accumulated fsync batch through to disk.
	// Best-effort — the epoch counter also rides in every snapshot.
	if m.cfg.Store != nil {
		if lsn, err := m.cfg.Store.Append(store.Record{Op: store.OpEpoch, Epoch: rep.Epoch}); err == nil {
			m.noteLSN(lsn)
			_ = m.cfg.Store.Sync()
		}
	}
	rep.Duration = time.Since(start)
	rep.Cache = m.cache.stats()
	if m.met != nil {
		m.met.epochsOK.Inc()
		m.met.epochDur.ObserveDuration(rep.Duration)
		m.met.epochRounds.Observe(float64(len(rep.Rounds)))
		m.met.roundsRouted.Add(uint64(len(missRounds)))
		m.met.roundsReused.Add(uint64(len(rep.Rounds) - len(missRounds)))
	}
	m.last.Store(rep)
	if m.cfg.Policy != nil {
		m.cfg.Policy.AfterEpoch(rep.Epoch)
	}
	return rep, nil
}

// roundKey appends to dst the content key of one scheduled round: for
// each member in round order, its source, its destination count and its
// destinations, as uvarints. The encoding is prefix-free, so equal keys
// mean equal request lists and hence equal assignments. It costs the
// round's fanout, not n. Content, not group identity, decides reuse — a
// deleted and recreated group restarts at generation 1 with different
// members.
func roundKey(dst []byte, reqs []sched.Request, members []int) []byte {
	for _, k := range members {
		r := reqs[k]
		dst = binary.AppendUvarint(dst, uint64(r.Source))
		dst = binary.AppendUvarint(dst, uint64(len(r.Dests)))
		for _, d := range r.Dests {
			dst = binary.AppendUvarint(dst, uint64(d))
		}
	}
	return dst
}

// Epoch returns the number of completed epochs.
func (m *Manager) Epoch() int64 { return m.epochN.Load() }

// LastEpoch returns the most recent epoch report, or nil before the
// first epoch completes.
func (m *Manager) LastEpoch() *EpochReport { return m.last.Load() }

// Pending returns the membership changes accumulated since the last
// epoch began.
func (m *Manager) Pending() int64 { return m.pending.Load() }

// loop is the epoch goroutine: tick-driven when EpochPeriod > 0,
// kicked early whenever the pending-change threshold trips.
func (m *Manager) loop() {
	defer close(m.done)
	var tick <-chan time.Time
	if m.cfg.EpochPeriod > 0 {
		t := time.NewTicker(m.cfg.EpochPeriod)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-m.quit:
			return
		case <-tick:
		case <-m.kick:
		}
		if _, err := m.RunEpoch(); err != nil && !errors.Is(err, ErrClosed) {
			// An epoch can only fail on an internal invariant breach;
			// surface it in the report stream rather than crash the loop.
			if m.met != nil {
				m.met.epochsErr.Inc()
			}
			m.last.Store(&EpochReport{Epoch: m.epochN.Load(), When: time.Now(), Err: err.Error()})
		}
	}
}
