// Package shard is the multi-fabric serving layer: it partitions the
// long-lived multicast groups of internal/groupd across K independent
// planner shards, each a full vertical slice of the single-fabric
// service — its own groupd.Manager with its two planners (one for
// serving plan misses, one for the epoch), plan cache, epoch scheduler,
// and fault policy. The shard's one worker makes its manager's Plan
// calls one at a time, so a manager needs no planner pool. One epoch
// loop over one fabric serializes every group through the same planner;
// K shards admit traffic onto K switching planes in parallel, which is
// where the serving layer's throughput comes from (the same
// batched-admission idea the wormhole multi-lane MIN and optical
// multicast service literature applies at the fabric level).
//
// Three cooperating mechanisms:
//
//   - placement: groups map to shards by consistent hashing on the
//     group ID over a Ring (ring.go) of the live shards' virtual nodes;
//     the cluster tier places groups on nodes with the same Ring.
//     Hashing the ID — not the source port — keeps a group's home
//     stable across membership churn and spreads the many groups a hot
//     source owns over every plane; see DESIGN.md.
//   - batched admission: every state-touching operation (create, join,
//     leave, delete, plan) enqueues onto the owning shard's bounded
//     admission queue and is executed by that shard's worker in drained
//     batches. A full queue exerts backpressure for Config.AdmitWait,
//     then sheds the operation as ErrOverloaded — the HTTP layer's 429.
//     The steady-state admission path allocates nothing: tasks are
//     pooled, the reply channel is reused, and placement is an inline
//     FNV hash plus a binary search.
//   - rebalance: quarantining a shard (manually, or automatically when
//     its fault policy reports unhealthy) rebuilds the ring without it
//     and migrates its groups to their new ring owners; reinstating it
//     migrates them back. A group moves the way cluster drain moves it
//     between nodes — Export, Install on the owner, DeleteIfGen at the
//     exported generation — so its generation and warm plan survive.
//     Placement and migration serialize on one RWMutex whose read side
//     is the enqueue step of admission; a rebalance takes the write
//     side (no new enqueues) and then flushes every queue with a
//     barrier task, so it observes a quiesced set.
//
// Admission comes in two shapes: the synchronous methods (Create, Join,
// ..., each taking a context that cancels the wait) block until the
// batch executes, while the Submit* methods return a Ticket
// immediately and publish the result — with a per-stage Unix-ns timing
// record — when the worker gets to it. See ticket.go.
//
// A Set is safe for concurrent use by the HTTP handlers of
// internal/api, its shard workers, and the managers' epoch goroutines.
package shard

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"brsmn/internal/groupd"
	"brsmn/internal/obs"
	"brsmn/internal/store"
)

// Sentinel errors the API layer maps to HTTP statuses.
var (
	// ErrOverloaded is admission-queue overflow after the backpressure
	// window — the 429 surface.
	ErrOverloaded = errors.New("shard: admission queue full")
	// ErrClosed reports a Set that has been Closed.
	ErrClosed = errors.New("shard: set closed")
	// ErrNoLiveShard means every shard is quarantined.
	ErrNoLiveShard = errors.New("shard: no live shard")
	// ErrNoSuchShard reports an out-of-range shard ID.
	ErrNoSuchShard = errors.New("shard: no such shard")
)

// HealthReporter is the optional fault-policy facet the Set watches to
// quarantine a shard automatically: a policy that also reports overall
// fabric health (implemented by faultd.Monitor). A policy without it is
// never auto-quarantined.
type HealthReporter interface {
	Healthy() bool
}

// Config parameterizes a Set. Group is the per-shard manager template;
// its Policy and MetricsLabel fields are overridden per shard.
type Config struct {
	// Shards is the serving-shard count K (default 1).
	Shards int
	// QueueDepth bounds each shard's admission queue (default 256).
	QueueDepth int
	// BatchMax caps the operations a shard worker drains per batch
	// (default 32).
	BatchMax int
	// AdmitWait is how long admission exerts backpressure on a full
	// queue before shedding with ErrOverloaded (default 20ms).
	AdmitWait time.Duration
	// Group is the per-shard groupd.Config template: N, cache size,
	// epoch period/threshold, metrics registry, tracer.
	Group groupd.Config
	// NewPolicy, when non-nil, builds shard i's fault policy. Policies
	// that also implement HealthReporter arm automatic quarantine.
	NewPolicy func(shard int) groupd.FaultPolicy
	// OnQuarantine, when non-nil, is called (on its own goroutine)
	// after an automatic fault-triggered quarantine completes.
	OnQuarantine func(shard int)
	// Metrics, when non-nil, receives the admission and placement
	// series of metrics.go, labeled per shard.
	Metrics *obs.Registry
	// NewStore, when non-nil, builds shard i's durable store: each
	// shard gets its own WAL + snapshot stream, its manager recovers
	// from it at construction, and the Set rebalances recovered groups
	// whose placement moved (e.g. after a shard-count change).
	NewStore func(shard int) (store.Store, error)
	// SnapshotEvery, when > 0 and NewStore is set, snapshots every
	// shard periodically on a background goroutine (stopped by Close).
	SnapshotEvery time.Duration
	// FaultSpecs, when non-nil, reports the fault specs armed on shard
	// i's fabric, carried by that shard's snapshots (see
	// groupd.Config.FaultSpecs).
	FaultSpecs func(shard int) []string
	// TicketCap bounds the tickets the registry tracks at once — open
	// plus retained-completed (default 65536). Submissions beyond the
	// cap shed with ErrTicketLimit once no completed ticket is old
	// enough to evict.
	TicketCap int
	// TicketTTL is how long a completed ticket stays pollable before
	// eviction (default 2m).
	TicketTTL time.Duration
	// TicketNode, when non-empty, suffixes ticket IDs as "t<seq>@<node>"
	// so a cluster tier can route polls back to the issuing node.
	TicketNode string
}

func (c *Config) applyDefaults() {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.BatchMax <= 0 {
		c.BatchMax = 32
	}
	if c.AdmitWait <= 0 {
		c.AdmitWait = 20 * time.Millisecond
	}
	if c.TicketCap <= 0 {
		c.TicketCap = 65536
	}
	if c.TicketTTL <= 0 {
		c.TicketTTL = 2 * time.Minute
	}
}

// Shard is one serving plane: a full groupd.Manager (two planners, plan
// cache, epoch loop) plus its admission queue and worker.
type Shard struct {
	id    int
	set   *Set
	gm    *groupd.Manager
	watch *watchedPolicy // nil without a policy
	dead  atomic.Bool

	queue      chan *task
	batchCap   int
	workerDone chan struct{}

	admitted atomic.Uint64
	shed     atomic.Uint64
	canceled atomic.Uint64
	batches  atomic.Uint64

	// Admission stage histograms; nil without a registry (Observe on a
	// nil *obs.Histogram is a no-op).
	waitHist   *obs.Histogram
	batchHist  *obs.Histogram
	execHist   *obs.Histogram
	signalHist *obs.Histogram
}

// Set is the sharded serving layer. Construct with New, release with
// Close. It implements the same group surface as groupd.Manager, so the
// HTTP layer serves either behind one interface.
type Set struct {
	cfg    Config
	shards []*Shard
	// ring places groups on the live shards; rebuilt under placeMu's
	// write side by quarantine and reinstate.
	ring *Ring[*Shard]

	// placeMu serializes placement against rebalance: admission holds
	// the read side only across locate + enqueue (never the wait for
	// execution), so a writer — quarantine, reinstate, close — blocks
	// new enqueues and then quiesces the queues with flushLocked before
	// moving groups.
	placeMu sync.RWMutex
	closed  bool

	// workersStarted gates flushLocked: recovery-time rebalances run
	// before the shard workers exist, with empty queues.
	workersStarted bool

	tickets *ticketRegistry

	nextID      atomic.Uint64
	migrations  atomic.Uint64
	quarantines atomic.Uint64

	// Periodic snapshot goroutine; nil channels when not running.
	snapQuit chan struct{}
	snapDone chan struct{}

	tasks sync.Pool
}

// New builds K shards and their placement ring. Each shard's manager
// runs its own epoch loop per the Group template.
func New(cfg Config) (*Set, error) {
	cfg.applyDefaults()
	s := &Set{cfg: cfg}
	s.tasks.New = func() any { return &task{done: make(chan struct{}, 1)} }
	s.tickets = newTicketRegistry(cfg.TicketCap, cfg.TicketTTL, cfg.TicketNode)
	for i := 0; i < cfg.Shards; i++ {
		i := i
		gcfg := cfg.Group
		gcfg.MetricsLabel = shardLabel(i)
		if gcfg.Metrics == nil {
			gcfg.Metrics = cfg.Metrics
		}
		var watch *watchedPolicy
		if cfg.NewPolicy != nil {
			if p := cfg.NewPolicy(i); p != nil {
				watch = &watchedPolicy{FaultPolicy: p, set: s, shard: i}
				gcfg.Policy = watch
			}
		}
		var st store.Store
		if cfg.NewStore != nil {
			var err error
			st, err = cfg.NewStore(i)
			if err != nil {
				for _, sh := range s.shards {
					sh.gm.Close()
				}
				return nil, fmt.Errorf("shard %d: open store: %w", i, err)
			}
			gcfg.Store = st
			if cfg.FaultSpecs != nil {
				gcfg.FaultSpecs = func() []string { return cfg.FaultSpecs(i) }
			}
		}
		gm, err := groupd.NewManager(gcfg)
		if err != nil {
			if st != nil {
				st.Close() // the manager never took ownership
			}
			for _, sh := range s.shards {
				sh.gm.Close()
			}
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		sh := &Shard{
			id:         i,
			set:        s,
			gm:         gm,
			watch:      watch,
			queue:      make(chan *task, cfg.QueueDepth),
			batchCap:   cfg.BatchMax,
			workerDone: make(chan struct{}),
		}
		s.shards = append(s.shards, sh)
	}
	s.rebuildRing()
	if cfg.Metrics != nil {
		s.registerMetrics(cfg.Metrics)
	}
	if cfg.NewStore != nil {
		if err := s.reconcileRecovered(); err != nil {
			for _, sh := range s.shards {
				sh.gm.Close()
			}
			return nil, err
		}
	}
	s.workersStarted = true
	for _, sh := range s.shards {
		go sh.worker()
	}
	if cfg.NewStore != nil && cfg.SnapshotEvery > 0 {
		s.snapQuit = make(chan struct{})
		s.snapDone = make(chan struct{})
		go s.snapshotLoop(cfg.SnapshotEvery)
	}
	return s, nil
}

// reconcileRecovered runs after every shard's manager has restored from
// its store: it advances the Set-level auto-ID counter past recovered
// "g<k>" IDs and migrates any group whose placement no longer matches
// its recovered shard (a shard-count change moves ring ownership, and a
// crash mid-migration leaves a group on two shards; the higher
// generation wins). The migration itself is durable, since it appends
// to the gaining and losing shards' logs.
func (s *Set) reconcileRecovered() error {
	s.placeMu.Lock()
	defer s.placeMu.Unlock()
	recovered := 0
	for _, sh := range s.shards {
		for _, info := range sh.gm.List() {
			recovered++
			rest, ok := strings.CutPrefix(info.ID, "g")
			if !ok {
				continue
			}
			if k, err := strconv.ParseUint(rest, 10, 64); err == nil && k > s.nextID.Load() {
				s.nextID.Store(k)
			}
		}
	}
	if recovered == 0 {
		return nil
	}
	if err := s.rebalanceLocked(); err != nil {
		return fmt.Errorf("shard: rebalancing recovered groups: %w", err)
	}
	return nil
}

// snapshotLoop snapshots every shard on the configured cadence.
func (s *Set) snapshotLoop(every time.Duration) {
	defer close(s.snapDone)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-s.snapQuit:
			return
		case <-t.C:
			_, _ = s.SnapshotAll() // per-shard errors surface via metrics and on-demand snapshots
		}
	}
}

// SnapshotAll snapshots every shard's manager to its store, returning
// one SnapshotInfo per shard. ErrNoStore without a store factory.
func (s *Set) SnapshotAll() ([]store.SnapshotInfo, error) {
	if s.cfg.NewStore == nil {
		return nil, groupd.ErrNoStore
	}
	s.placeMu.RLock()
	defer s.placeMu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	out := make([]store.SnapshotInfo, 0, len(s.shards))
	for _, sh := range s.shards {
		info, err := sh.gm.SnapshotNow()
		if err != nil {
			return out, fmt.Errorf("shard %d: snapshot: %w", sh.id, err)
		}
		info.Shard = sh.id
		out = append(out, info)
	}
	return out, nil
}

// Recovery returns what each shard's manager reconstructed at boot,
// indexed by shard ID.
func (s *Set) Recovery() []groupd.RecoveryStats {
	out := make([]groupd.RecoveryStats, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.gm.Recovery()
	}
	return out
}

// shardLabel renders shard i's metric label pair.
func shardLabel(i int) string { return fmt.Sprintf(`shard="%d"`, i) }

// locate returns the live shard owning id. Callers hold placeMu (read
// or write side).
func (s *Set) locate(id string) (*Shard, error) {
	sh, ok := s.ring.Owner(id)
	if !ok {
		return nil, ErrNoLiveShard
	}
	return sh, nil
}

// rebuildRing places the live shards on a fresh ring. Callers hold
// placeMu's write side, or own the Set alone (New).
func (s *Set) rebuildRing() {
	live := make([]*Shard, 0, len(s.shards))
	for _, sh := range s.shards {
		if !sh.dead.Load() {
			live = append(live, sh)
		}
	}
	s.ring = NewRing(live, func(sh *Shard, r int) string { return fmt.Sprintf("shard-%d-%d", sh.id, r) })
}

// N returns the per-shard network size.
func (s *Set) N() int { return s.cfg.Group.N }

// Shards returns the configured shard count K.
func (s *Set) Shards() int { return len(s.shards) }

// Manager exposes shard i's group manager — the introspection surface
// for tests and per-shard tooling.
func (s *Set) Manager(i int) (*groupd.Manager, error) {
	if i < 0 || i >= len(s.shards) {
		return nil, fmt.Errorf("%w: %d", ErrNoSuchShard, i)
	}
	return s.shards[i].gm, nil
}

// Close stops every shard: new admissions fail with ErrClosed, the
// periodic snapshot loop stops, queued work drains, workers exit, and
// managers close — with a durable store, each manager's Close writes a
// final snapshot and closes the store, so a graceful shutdown leaves
// nothing to replay. Idempotent; returns the first shard close error.
func (s *Set) Close() error {
	s.placeMu.Lock()
	if s.closed {
		s.placeMu.Unlock()
		return nil
	}
	s.closed = true
	s.placeMu.Unlock()
	if s.snapQuit != nil {
		close(s.snapQuit)
		<-s.snapDone
	}
	// No enqueue is in flight (sends happen under the read lock with
	// closed checked) and none can start, so closing the queues is
	// race-free. Workers drain the remaining buffered tasks — signaling
	// their waiters and completing their tickets — before managers
	// close, so the final snapshots see every admitted mutation.
	for _, sh := range s.shards {
		close(sh.queue)
	}
	var firstErr error
	for _, sh := range s.shards {
		<-sh.workerDone
		if err := sh.gm.Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("shard %d: close: %w", sh.id, err)
		}
	}
	return firstErr
}

// --- group surface (mirrors groupd.Manager) ---

// Create registers a group on its placement shard. An empty ID is
// auto-assigned before placement, since placement hashes the ID. If ctx
// ends before the operation is delivered, the slot is freed (or the
// executed result is discarded) and ctx.Err() returned; Join, Leave,
// Delete and Plan honor ctx the same way.
func (s *Set) Create(ctx context.Context, id string, source int, members []int) (groupd.GroupInfo, error) {
	if id == "" {
		id = fmt.Sprintf("g%d", s.nextID.Add(1))
	}
	t := s.getTask()
	t.op = opCreate
	t.id = id
	t.source = source
	t.members = members
	return s.admitInfo(ctx, t)
}

// Join admits output d to the group on its owning shard.
func (s *Set) Join(ctx context.Context, id string, d int) (groupd.Update, error) {
	t := s.getTask()
	t.op = opJoin
	t.id = id
	t.dest = d
	return s.admitUpdate(ctx, t)
}

// Leave removes output d from the group; same contract as Join.
func (s *Set) Leave(ctx context.Context, id string, d int) (groupd.Update, error) {
	t := s.getTask()
	t.op = opLeave
	t.id = id
	t.dest = d
	return s.admitUpdate(ctx, t)
}

// Delete unregisters the group from its owning shard.
func (s *Set) Delete(ctx context.Context, id string) error {
	t := s.getTask()
	t.op = opDelete
	t.id = id
	_, err := s.admitInfo(ctx, t)
	return err
}

// Plan returns the group's column program from its owning shard — the
// steady route path. Warm requests are plan-cache hits on the shard and
// allocate nothing end to end, admission included.
func (s *Set) Plan(ctx context.Context, id string) (groupd.PlanInfo, error) {
	t := s.getTask()
	t.op = opPlan
	t.id = id
	return s.admitPlan(ctx, t)
}

// Get reads the group's state from its owning shard (no admission —
// reads don't contend with the planning queue).
func (s *Set) Get(id string) (groupd.GroupInfo, error) {
	s.placeMu.RLock()
	defer s.placeMu.RUnlock()
	if s.closed {
		return groupd.GroupInfo{}, ErrClosed
	}
	sh, err := s.locate(id)
	if err != nil {
		return groupd.GroupInfo{}, err
	}
	return sh.gm.Get(id)
}

// List returns every group across all shards, sorted by ID.
func (s *Set) List() []groupd.GroupInfo {
	s.placeMu.RLock()
	defer s.placeMu.RUnlock()
	var out []groupd.GroupInfo
	for _, sh := range s.shards {
		out = append(out, sh.gm.List()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Count returns the total registered groups across all shards.
func (s *Set) Count() int {
	c := 0
	for _, sh := range s.shards {
		c += sh.gm.Count()
	}
	return c
}

// Epoch returns the largest completed epoch count across shards.
func (s *Set) Epoch() int64 {
	var e int64
	for _, sh := range s.shards {
		if v := sh.gm.Epoch(); v > e {
			e = v
		}
	}
	return e
}

// Pending sums the membership churn accumulated across shards.
func (s *Set) Pending() int64 {
	var p int64
	for _, sh := range s.shards {
		p += sh.gm.Pending()
	}
	return p
}

// CacheStats sums the per-shard plan-cache counters.
func (s *Set) CacheStats() groupd.CacheStats {
	var agg groupd.CacheStats
	for _, sh := range s.shards {
		cs := sh.gm.CacheStats()
		agg.Hits += cs.Hits
		agg.Misses += cs.Misses
		agg.Evictions += cs.Evictions
		agg.Invalidations += cs.Invalidations
		agg.Size += cs.Size
		agg.Capacity += cs.Capacity
	}
	return agg
}

// RunEpoch reroutes every live shard concurrently and merges the
// reports: rounds concatenate (they ran on independent fabrics), the
// scalar tallies sum, and Epoch is the largest per-shard epoch number.
func (s *Set) RunEpoch() (*groupd.EpochReport, error) {
	s.placeMu.RLock()
	live := s.ring.members // a ring is immutable; its member list is too
	s.placeMu.RUnlock()
	if len(live) == 0 {
		return nil, ErrNoLiveShard
	}
	start := time.Now()
	reps := make([]*groupd.EpochReport, len(live))
	errs := make([]error, len(live))
	var wg sync.WaitGroup
	for i, sh := range live {
		wg.Add(1)
		go func(i int, sh *Shard) {
			defer wg.Done()
			reps[i], errs[i] = sh.gm.RunEpoch()
		}(i, sh)
	}
	wg.Wait()
	merged := &groupd.EpochReport{When: start}
	for i, rep := range reps {
		if errs[i] != nil {
			return nil, fmt.Errorf("shard %d: %w", live[i].id, errs[i])
		}
		if rep.Epoch > merged.Epoch {
			merged.Epoch = rep.Epoch
		}
		merged.Groups += rep.Groups
		merged.Fanout += rep.Fanout
		merged.Rounds = append(merged.Rounds, rep.Rounds...)
		merged.Quarantined += rep.Quarantined
		merged.DegradedRounds += rep.DegradedRounds
	}
	merged.Duration = time.Since(start)
	merged.Cache = s.CacheStats()
	return merged, nil
}

// LastEpoch merges the shards' most recent epoch reports, or nil before
// any shard has completed one.
func (s *Set) LastEpoch() *groupd.EpochReport {
	var merged *groupd.EpochReport
	for _, sh := range s.shards {
		rep := sh.gm.LastEpoch()
		if rep == nil {
			continue
		}
		if merged == nil {
			merged = &groupd.EpochReport{When: rep.When}
		}
		if rep.Epoch > merged.Epoch {
			merged.Epoch = rep.Epoch
		}
		if rep.Duration > merged.Duration {
			merged.Duration = rep.Duration
		}
		merged.Groups += rep.Groups
		merged.Fanout += rep.Fanout
		merged.Rounds = append(merged.Rounds, rep.Rounds...)
		merged.Quarantined += rep.Quarantined
		merged.DegradedRounds += rep.DegradedRounds
		if rep.Err != "" {
			merged.Err = rep.Err
		}
	}
	if merged != nil {
		merged.Cache = s.CacheStats()
	}
	return merged
}

// --- quarantine and rebalance ---

// Quarantine removes shard i from the placement ring and migrates its
// groups to their new ring owners. Refused when it would leave no live
// shard.
func (s *Set) Quarantine(i int) error { return s.setLive(i, false) }

// Reinstate returns shard i to the ring and migrates back the groups
// whose hash points it owns. The shard's fault-watch trigger re-arms.
func (s *Set) Reinstate(i int) error { return s.setLive(i, true) }

// setLive puts shard i on or takes it off the ring, then rebalances.
func (s *Set) setLive(i int, live bool) error {
	s.placeMu.Lock()
	defer s.placeMu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if i < 0 || i >= len(s.shards) {
		return fmt.Errorf("%w: %d", ErrNoSuchShard, i)
	}
	sh := s.shards[i]
	switch {
	case live && !sh.dead.Load():
		return fmt.Errorf("shard: %d not quarantined", i)
	case !live && sh.dead.Load():
		return fmt.Errorf("shard: %d already quarantined", i)
	case !live && len(s.ring.members) <= 1:
		return fmt.Errorf("shard: refusing to quarantine %d: %v", i, ErrNoLiveShard)
	}
	sh.dead.Store(!live)
	if !live {
		s.quarantines.Add(1)
	} else if sh.watch != nil {
		sh.watch.fired.Store(false)
	}
	s.rebuildRing()
	return s.rebalanceLocked()
}

// rebalanceLocked moves every group held off its ring owner with the
// cluster drain's triple: export the group with its warm plan, install
// it on the owner, then delete the local copy at the exported
// generation. Generations and warm healthy-fabric plans survive the
// move. Install comes first, so a crash between the two leaves the
// group on both shards, never on neither; Install is
// higher-generation-wins, so the next rebalance (at the latest, the one
// reconcileRecovered runs at boot) keeps the fresher copy on the owner
// and drops the other. Migration bypasses admission: the caller holds
// the write lock (no new enqueues), and the barrier flush below drains
// everything already queued, so no operation is in flight anywhere.
func (s *Set) rebalanceLocked() error {
	s.flushLocked()
	var firstErr error
	for _, from := range s.shards {
		groups, plans := from.gm.Export()
		for k, g := range groups {
			to, err := s.locate(g.ID)
			if err != nil {
				return err // no live shard; nothing can be placed
			}
			if to == from {
				continue
			}
			err = to.gm.Install(g, plans[k])
			if err == nil {
				err = from.gm.DeleteIfGen(g.ID, g.Gen)
			}
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("shard: moving %q from shard %d to %d: %w", g.ID, from.id, to.id, err)
				}
				continue // the source copy stays; a later rebalance retries
			}
			s.migrations.Add(1)
		}
	}
	return firstErr
}

// quarantineDetected is the automatic path, run on its own goroutine
// from a shard's epoch loop when its fault policy turns unhealthy.
func (s *Set) quarantineDetected(i int) {
	if err := s.Quarantine(i); err != nil {
		return // already quarantined, closing, or last live shard
	}
	if s.cfg.OnQuarantine != nil {
		s.cfg.OnQuarantine(i)
	}
}

// watchedPolicy wraps a shard's fault policy to watch for detection:
// after every epoch, an unhealthy report triggers (once, until the
// shard is reinstated) an asynchronous quarantine-and-rebalance.
type watchedPolicy struct {
	groupd.FaultPolicy
	set   *Set
	shard int
	fired atomic.Bool
}

func (w *watchedPolicy) AfterEpoch(epoch int64) {
	w.FaultPolicy.AfterEpoch(epoch)
	if w.fired.Load() {
		return
	}
	hr, ok := w.FaultPolicy.(HealthReporter)
	if !ok || hr.Healthy() {
		return
	}
	if w.fired.CompareAndSwap(false, true) {
		// Off the epoch goroutine: quarantine takes the placement write
		// lock and must not stall the shard's epoch loop.
		go w.set.quarantineDetected(w.shard)
	}
}

// --- stats ---

// ShardStats is one shard's externally visible state.
type ShardStats struct {
	ID         int               `json:"id"`
	Live       bool              `json:"live"`
	Groups     int               `json:"groups"`
	Epoch      int64             `json:"epoch"`
	Pending    int64             `json:"pending"`
	QueueLen   int               `json:"queueLen"`
	QueueDepth int               `json:"queueDepth"`
	Admitted   uint64            `json:"admitted"`
	Shed       uint64            `json:"shed"`
	Canceled   uint64            `json:"canceled"`
	Batches    uint64            `json:"batches"`
	Cache      groupd.CacheStats `json:"cache"`
}

// SetStats is the whole serving layer's snapshot.
type SetStats struct {
	Shards      int          `json:"shards"`
	Live        int          `json:"live"`
	Groups      int          `json:"groups"`
	Migrations  uint64       `json:"migrations"`
	Quarantines uint64       `json:"quarantines"`
	PerShard    []ShardStats `json:"perShard"`
}

// Stats snapshots every shard.
func (s *Set) Stats() SetStats {
	st := SetStats{
		Shards:      len(s.shards),
		Migrations:  s.migrations.Load(),
		Quarantines: s.quarantines.Load(),
	}
	for _, sh := range s.shards {
		ss := ShardStats{
			ID:         sh.id,
			Live:       !sh.dead.Load(),
			Groups:     sh.gm.Count(),
			Epoch:      sh.gm.Epoch(),
			Pending:    sh.gm.Pending(),
			QueueLen:   len(sh.queue),
			QueueDepth: cap(sh.queue),
			Admitted:   sh.admitted.Load(),
			Shed:       sh.shed.Load(),
			Canceled:   sh.canceled.Load(),
			Batches:    sh.batches.Load(),
			Cache:      sh.gm.CacheStats(),
		}
		if ss.Live {
			st.Live++
		}
		st.Groups += ss.Groups
		st.PerShard = append(st.PerShard, ss)
	}
	return st
}
