// Package groupd is the stateful group-management layer of the multicast
// service: the piece that makes the BRSMN behave like a long-running
// switch under churn rather than a per-request calculator. It owns three
// cooperating parts:
//
//   - a session registry: long-lived multicast groups keyed by ID, each
//     wrapping a brsmn.Group whose routing-tag tree is mutated
//     incrementally (O(log n) nodes per join/leave) under a per-session
//     mutex, with a generation counter bumped on every change;
//   - an epoch scheduler: membership changes accumulate, and every epoch
//     (timer tick or pending-change threshold) the live groups are
//     partitioned into conflict-free rounds by internal/sched and routed
//     one after the other on the manager's epoch planner, so overlapping
//     groups coexist the way real traffic does;
//   - a plan cache: an LRU keyed by (group ID, generation) holding
//     plancodec-encoded column programs, so rerouting an unchanged group
//     is a cache hit instead of an O(n log^2 n) replan. A miss has one
//     path (patch.go), shared by Plan and the epoch's refresh: a patch of
//     the plan planner's retained route when it is the group's, else a
//     full route — on the plan planner for Plan, on the epoch planner for
//     the epoch. Hit/miss/eviction counters are exposed for
//     benchmarking.
//
// A Manager owns exactly two planners and no pool: its callers make
// Plan calls one at a time (internal/shard gives each manager one
// worker), and it runs one epoch at a time. It is safe for concurrent
// use by the HTTP handlers of internal/api and its own epoch goroutine.
package groupd

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"brsmn"
	"brsmn/internal/core"
	"brsmn/internal/obs"
	"brsmn/internal/shuffle"
	"brsmn/internal/store"
)

// Sentinel errors the API layer maps to HTTP statuses.
var (
	ErrNotFound = errors.New("groupd: no such group")
	ErrExists   = errors.New("groupd: group already exists")
	ErrClosed   = errors.New("groupd: manager closed")
	// ErrStore wraps a durable-store append failure: the mutation was
	// rolled back, nothing changed, and the caller may retry.
	ErrStore = errors.New("groupd: durable store append failed")
	// ErrNoStore is returned by snapshot operations on a manager built
	// without Config.Store.
	ErrNoStore = errors.New("groupd: no durable store configured")
)

// Config parameterizes a Manager. The zero value of every field except N
// is usable; NewManager fills in defaults.
type Config struct {
	// N is the (fixed) network size, a power of two >= 2.
	N int
	// CacheSize caps the plan cache in entries (default 1024).
	CacheSize int
	// EpochPeriod drives the timer-based epoch loop; 0 disables the
	// timer (epochs run on threshold or on demand only).
	EpochPeriod time.Duration
	// EpochThreshold forces an early epoch once this many membership
	// changes are pending; 0 disables threshold-driven epochs.
	EpochThreshold int
	// Policy, when non-nil, filters every planned assignment around
	// believed faults and hooks probe scheduling into the epoch loop
	// (see FaultPolicy; implemented by internal/faultd).
	Policy FaultPolicy
	// Metrics, when non-nil, receives the manager's series: epoch
	// duration/rounds histograms, replan latency, patched-vs-full miss
	// counters and plan-cache counters (see metrics.go for the full
	// reference).
	Metrics *obs.Registry
	// MetricsLabel, when non-empty, is a rendered label pair (e.g.
	// `shard="3"`) folded into every series this manager registers, so
	// several managers — the shards of internal/shard — can share one
	// registry without colliding.
	MetricsLabel string
	// Tracer, when non-nil, samples replans per group and records a
	// per-stage RouteTrace for each sampled one.
	Tracer *obs.TraceRecorder
	// Store, when non-nil, makes the manager durable: every mutation is
	// appended to the store before it becomes visible (rolled back on
	// append failure), NewManager recovers state via snapshot-load plus
	// log replay, and Close writes a final snapshot and closes the
	// store. The manager owns the store from then on.
	Store store.Store
	// FaultSpecs, when non-nil, reports the fault specs currently armed
	// on the fabric (faultd Fault.String() form); snapshots carry them
	// so believed faults survive a restart alongside the groups.
	FaultSpecs func() []string
}

// session is one registered group. Manager.regMu covers the registry
// map; the session's own mutex covers the tag tree and generation.
type session struct {
	mu    sync.Mutex
	id    string
	group *brsmn.Group
	gen   uint64
	gone  bool // deleted from the registry while a caller still holds it
	// members is the sorted member list materialized at generation
	// membersGen (0: never). Every tree change bumps gen or replaces the
	// session, so the list is rebuilt only after a change; it is shared
	// read-only with epoch snapshots and never written in place.
	members    []int
	membersGen uint64
	// chg is a ring of the session's most recent membership changes,
	// indexed by the generation each produced (chg[gen%chgRing]); the
	// plan-patch path replays it to roll a retained route forward.
	chg [chgRing]memberChange
}

// Manager is the stateful group subsystem. Construct with NewManager and
// release with Close.
type Manager struct {
	cfg   Config
	cache *planCache

	regMu  sync.RWMutex // covers groups
	groups map[string]*session

	nextID  atomic.Uint64
	pending atomic.Int64 // membership changes since the last epoch began
	closed  atomic.Bool

	epochMu sync.Mutex // serializes RunEpoch
	epochN  atomic.Int64
	memo    roundMemo     // previous epoch's routed rounds, under epochMu
	epochPl *core.Planner // routes missed epoch rounds; built on the first, under epochMu
	last    atomic.Pointer[EpochReport]

	met    *managerMetrics // nil when Config.Metrics was nil
	tracer *obs.TraceRecorder
	patch  patchState // the plan planner and its retained route

	// Durability state; all zero when Config.Store is nil.
	lastLSN         atomic.Uint64 // highest LSN this manager has appended or replayed
	snapMu          sync.Mutex    // serializes snapshotToStore
	recovered       RecoveryStats // written once during NewManager
	recoveredFaults []string

	kick        chan struct{}
	quit        chan struct{}
	done        chan struct{}
	loopRunning bool
}

// NewManager builds the subsystem and, when Config enables timer- or
// threshold-driven epochs, starts the epoch goroutine.
func NewManager(cfg Config) (*Manager, error) {
	if !shuffle.IsPow2(cfg.N) || cfg.N < 2 {
		return nil, fmt.Errorf("groupd: network size %d is not a power of two >= 2", cfg.N)
	}
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 1024
	}
	m := &Manager{
		cfg:    cfg,
		cache:  newPlanCache(cfg.CacheSize),
		groups: make(map[string]*session),
		kick:   make(chan struct{}, 1),
		quit:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	m.tracer = cfg.Tracer
	if cfg.Store != nil {
		if err := m.restore(); err != nil {
			return nil, err
		}
	}
	if cfg.Metrics != nil {
		m.met = m.registerMetrics(cfg.Metrics)
	}
	if cfg.EpochPeriod > 0 || cfg.EpochThreshold > 0 {
		m.loopRunning = true
		go m.loop()
	}
	return m, nil
}

// Close stops the epoch loop, waiting for an in-flight epoch to drain,
// and releases the epoch round memo. With a durable store it then
// writes a final snapshot (so the next boot replays nothing) and closes
// the store. It is idempotent and safe to call concurrently.
func (m *Manager) Close() error {
	if m.closed.Swap(true) {
		return nil
	}
	close(m.quit)
	if m.loopRunning {
		<-m.done
	}
	m.epochMu.Lock()
	m.memo = roundMemo{}
	m.epochMu.Unlock()
	if m.cfg.Store == nil {
		return nil
	}
	_, serr := m.snapshotToStore()
	cerr := m.cfg.Store.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// N returns the configured network size.
func (m *Manager) N() int { return m.cfg.N }

func (m *Manager) sessionFor(id string) (*session, error) {
	m.regMu.RLock()
	s, ok := m.groups[id]
	m.regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return s, nil
}

// noteChange records membership churn and kicks an early epoch when the
// threshold is crossed.
func (m *Manager) noteChange(n int) {
	p := m.pending.Add(int64(n))
	if m.cfg.EpochThreshold > 0 && p >= int64(m.cfg.EpochThreshold) && m.loopRunning {
		select {
		case m.kick <- struct{}{}:
		default:
		}
	}
}

// GroupInfo is the full externally visible state of one group.
type GroupInfo struct {
	ID       string `json:"id"`
	Source   int    `json:"source"`
	Gen      uint64 `json:"gen"`
	Size     int    `json:"size"`
	Members  []int  `json:"members"`
	Sequence string `json:"sequence"`
}

// Update is the O(log n) acknowledgement of a join/leave: enough for the
// caller to observe progress without materializing the O(n) member list.
type Update struct {
	ID   string `json:"id"`
	Gen  uint64 `json:"gen"`
	Size int    `json:"size"`
}

// Create registers a new group rooted at source with the given initial
// members. An empty id is auto-assigned ("g1", "g2", ...). Sources and
// memberships may overlap freely across groups — the epoch scheduler
// separates conflicting groups into rounds.
func (m *Manager) Create(id string, source int, members []int) (GroupInfo, error) {
	if m.closed.Load() {
		return GroupInfo{}, ErrClosed
	}
	if id == "" {
		id = fmt.Sprintf("g%d", m.nextID.Add(1))
	}
	g, err := brsmn.NewGroup(m.cfg.N, source)
	if err != nil {
		return GroupInfo{}, err
	}
	for _, d := range members {
		if err := g.Join(d); err != nil {
			return GroupInfo{}, fmt.Errorf("groupd: initial member %d: %w", d, err)
		}
	}
	s := &session{id: id, group: g, gen: 1}
	m.regMu.Lock()
	if _, ok := m.groups[id]; ok {
		m.regMu.Unlock()
		return GroupInfo{}, fmt.Errorf("%w: %q", ErrExists, id)
	}
	// Append before the group becomes visible: a crash after this point
	// replays the create; an append failure leaves no trace.
	if err := m.appendRecord(store.Record{Op: store.OpCreate, Group: id, Source: source, Gen: 1, Members: members}); err != nil {
		m.regMu.Unlock()
		return GroupInfo{}, err
	}
	m.groups[id] = s
	m.regMu.Unlock()
	m.noteChange(1 + len(members))
	return s.info(), nil
}

// Join admits output d to the group, bumping its generation and
// invalidating the superseded cached plan. The whole path — tag-tree
// update included — allocates O(log n), not O(n).
func (m *Manager) Join(id string, d int) (Update, error) {
	return m.mutate(id, d, true)
}

// Leave removes output d from the group; same contract as Join.
func (m *Manager) Leave(id string, d int) (Update, error) {
	return m.mutate(id, d, false)
}

func (m *Manager) mutate(id string, d int, join bool) (Update, error) {
	if m.closed.Load() {
		return Update{}, ErrClosed
	}
	s, err := m.sessionFor(id)
	if err != nil {
		return Update{}, err
	}
	op, inv, rop := (*brsmn.Group).Leave, (*brsmn.Group).Join, store.OpLeave
	if join {
		op, inv, rop = (*brsmn.Group).Join, (*brsmn.Group).Leave, store.OpJoin
	}
	s.mu.Lock()
	if s.gone {
		s.mu.Unlock()
		return Update{}, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	if err := op(s.group, d); err != nil {
		s.mu.Unlock()
		return Update{}, err
	}
	// The tag-tree op validated the mutation; log it before the new
	// generation becomes visible. Join and leave are exact inverses, so
	// an append failure rolls the tree back and the caller sees an
	// unchanged group.
	if err := m.appendRecord(store.Record{Op: rop, Group: id, Dest: d, Gen: s.gen + 1}); err != nil {
		_ = inv(s.group, d)
		s.mu.Unlock()
		return Update{}, err
	}
	old := s.gen
	s.gen++
	s.chg[s.gen%chgRing] = memberChange{gen: s.gen, dest: int32(d), join: join}
	u := Update{ID: s.id, Gen: s.gen, Size: s.group.Len()}
	s.mu.Unlock()
	m.cache.invalidate(planKey{id: id, gen: old, pv: m.policyVersion()})
	m.noteChange(1)
	return u, nil
}

// Delete unregisters the group and drops its cached plan.
func (m *Manager) Delete(id string) error {
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
	gen := s.gen
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

// Get returns the group's full state.
func (m *Manager) Get(id string) (GroupInfo, error) {
	s, err := m.sessionFor(id)
	if err != nil {
		return GroupInfo{}, err
	}
	return s.info(), nil
}

func (s *session) info() GroupInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	// The caller gets its own copy. Only snapshots fill the cached list,
	// so a manager that never runs an epoch retains none.
	members := s.members
	if s.membersGen == s.gen {
		members = slices.Clone(members)
	} else {
		members = s.group.Members()
	}
	return GroupInfo{
		ID:       s.id,
		Source:   s.group.Source(),
		Gen:      s.gen,
		Size:     s.group.Len(),
		Members:  members,
		Sequence: s.group.Sequence(),
	}
}

// memberList returns the session's members at its current generation,
// walking the tag tree only when the generation moved since the last
// snapshot. The slice is shared: callers must not modify it. s.mu is
// held.
func (s *session) memberList() []int {
	if s.membersGen != s.gen {
		s.members, s.membersGen = s.group.Members(), s.gen
	}
	return s.members
}

// List returns every registered group's state, sorted by ID.
func (m *Manager) List() []GroupInfo {
	sessions := m.sessions()
	out := make([]GroupInfo, 0, len(sessions))
	for _, s := range sessions {
		out = append(out, s.info())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Count returns the number of registered groups.
func (m *Manager) Count() int {
	m.regMu.RLock()
	defer m.regMu.RUnlock()
	return len(m.groups)
}

// sessions returns the registered sessions in map order, so callers
// lock each session without holding the registry lock.
func (m *Manager) sessions() []*session {
	m.regMu.RLock()
	defer m.regMu.RUnlock()
	out := make([]*session, 0, len(m.groups))
	for _, s := range m.groups {
		out = append(out, s)
	}
	return out
}

// CacheStats snapshots the plan cache counters.
func (m *Manager) CacheStats() CacheStats { return m.cache.stats() }

// PlanInfo is one group's encoded column program.
type PlanInfo struct {
	ID      string
	Gen     uint64
	Cached  bool // true when served from the plan cache
	Columns int
	Blob    []byte // plancodec format
}

// Plan returns the group's standalone column program — the switch
// settings a hardware configuration flow would load to realize this
// group alone. Served from the plan cache when the group is unchanged
// since the last computation; a miss takes the one plan-miss path
// (planOf, in patch.go).
func (m *Manager) Plan(id string) (PlanInfo, error) {
	s, err := m.sessionFor(id)
	if err != nil {
		return PlanInfo{}, err
	}
	// An unchanged group needs only its generation to hit the cache —
	// no O(n) member materialization.
	s.mu.Lock()
	gen := s.gen
	s.mu.Unlock()
	return m.planOf(s, gen, nil, nil)
}

// groupSnapshot is one group's membership frozen at epoch start. members
// is shared with the session and must not be modified.
type groupSnapshot struct {
	s       *session
	id      string
	source  int
	gen     uint64
	members []int
}

// snapshot freezes every registered group's state, sorted by ID so epoch
// scheduling is deterministic for a given membership. Member lists are
// the sessions' shared per-generation lists (read-only), so only groups
// that changed since the last snapshot walk their tag trees.
func (m *Manager) snapshot() []groupSnapshot {
	sessions := m.sessions()
	out := make([]groupSnapshot, 0, len(sessions))
	for _, s := range sessions {
		s.mu.Lock()
		out = append(out, groupSnapshot{
			s:       s,
			id:      s.id,
			source:  s.group.Source(),
			gen:     s.gen,
			members: s.memberList(),
		})
		s.mu.Unlock()
	}
	slices.SortFunc(out, func(a, b groupSnapshot) int { return strings.Compare(a.id, b.id) })
	return out
}
