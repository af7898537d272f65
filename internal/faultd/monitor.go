package faultd

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"brsmn/internal/bsn"
	"brsmn/internal/core"
	"brsmn/internal/cost"
	"brsmn/internal/diagnosis"
	"brsmn/internal/fabric"
	"brsmn/internal/mcast"
	"brsmn/internal/obs"
	"brsmn/internal/workload"
)

// Config parameterizes a Monitor. Only N is required.
type Config struct {
	// N is the (fixed) network size, a power of two >= 2.
	N int
	// ProbeCount is the number of built-in self-test assignments per
	// probe round (default 4).
	ProbeCount int
	// ProbeEvery runs a probe round every this many groupd epochs via
	// AfterEpoch; 0 probes only on demand (POST /probe, RunProbes).
	ProbeEvery int64
	// MaxModelCandidates bounds the suspect set the quarantine planner
	// simulates fault models for; above it the planner falls back to
	// rejecting whole connections that traverse any suspect
	// (default 16).
	MaxModelCandidates int
	// MetricsLabel, when non-empty, is a rendered label pair (e.g.
	// `shard="3"`) folded into every series RegisterMetrics registers,
	// so the per-shard monitors of internal/shard share one registry.
	MetricsLabel string
}

func (c *Config) applyDefaults() {
	if c.ProbeCount <= 0 {
		c.ProbeCount = 4
	}
	if c.MaxModelCandidates <= 0 {
		c.MaxModelCandidates = 16
	}
}

// probe is one precomputed self-test: the assignment, its fault-free
// routed program and the expected deliveries. Probes are deterministic,
// so the routing cost is paid once at Monitor construction.
type probe struct {
	a     mcast.Assignment
	res   *core.Result
	cols  []fabric.Column
	cells []bsn.Cell
	owner []int
}

// Monitor is the online fault-management loop: it probes the (possibly
// faulty) fabric, localizes detected faults incrementally, and plans
// degraded-mode traffic around them. It implements groupd.FaultPolicy
// and is safe for concurrent use.
type Monitor struct {
	cfg   Config
	depth int
	inj   *Injector
	nw    *core.Network
	// shape[ci] is column ci's wiring metadata (no settings), for
	// mapping suspects onto their attached links.
	shape  []fabric.Column
	probes []probe

	mu          sync.Mutex
	exec        fabric.Executor // probe/replan execution buffers, under mu
	planner     *core.Planner   // quarantine replanning pipeline, under mu
	tracker     *diagnosis.Tracker
	candidates  []diagnosis.Suspect
	models      []Fault // quarantine fault models derived from candidates
	quarantined map[int]bool

	// probeDur, when set by RegisterMetrics, observes probe round
	// durations; nil-safe like every obs instrument.
	probeDur *obs.Histogram

	version         atomic.Uint64
	probeRounds     atomic.Uint64
	probesRun       atomic.Uint64
	probeFailures   atomic.Uint64
	detectedAtProbe atomic.Uint64 // ProbesRun at first detection (1-based)
	degradedReplans atomic.Uint64
}

// NewMonitor builds the subsystem around an injector (the simulated
// faulty hardware; construct with NewInjector and share it with the
// serving path). The probe set is routed fault-free up front.
func NewMonitor(cfg Config, inj *Injector) (*Monitor, error) {
	cfg.applyDefaults()
	nw, err := core.New(cfg.N)
	if err != nil {
		return nil, fmt.Errorf("faultd: %w", err)
	}
	as, err := workload.Probes(cfg.N, cfg.ProbeCount)
	if err != nil {
		return nil, err
	}
	planner, err := core.NewPlanner(cfg.N)
	if err != nil {
		return nil, fmt.Errorf("faultd: %w", err)
	}
	m := &Monitor{
		cfg:         cfg,
		depth:       cost.BRSMNDepth(cfg.N),
		inj:         inj,
		nw:          nw,
		planner:     planner,
		tracker:     diagnosis.NewTracker(),
		quarantined: map[int]bool{},
	}
	for _, a := range as {
		res, err := nw.Route(a)
		if err != nil {
			return nil, fmt.Errorf("faultd: routing probe: %w", err)
		}
		cols, err := fabric.Flatten(res)
		if err != nil {
			return nil, err
		}
		cells, err := bsn.CellsForAssignment(a)
		if err != nil {
			return nil, err
		}
		if m.shape == nil {
			m.shape = make([]fabric.Column, len(cols))
			copy(m.shape, cols)
		}
		m.probes = append(m.probes, probe{a: a, res: res, cols: cols, cells: cells, owner: a.OutputOwner()})
	}
	return m, nil
}

// N returns the configured network size.
func (m *Monitor) N() int { return m.cfg.N }

// Depth returns the column depth of the fabric, the valid range of
// fault column coordinates.
func (m *Monitor) Depth() int { return m.depth }

// Injector returns the armed fault set's owner, the chaos surface.
func (m *Monitor) Injector() *Injector { return m.inj }

// ProbeReport summarizes one probe round.
type ProbeReport struct {
	// Probes and Failures count this round's self-tests and how many
	// delivered wrongly.
	Probes   int `json:"probes"`
	Failures int `json:"failures"`
	// Detected reports whether any probe so far (this round or earlier)
	// has excited a fault.
	Detected bool `json:"detected"`
	// Candidates is the localizer's surviving suspect set.
	Candidates []diagnosis.Suspect `json:"candidates,omitempty"`
}

// RunProbes executes one probe round: every built-in self-test runs
// through the injector, mismatches feed the incremental localizer, and
// the quarantine models are refreshed from the surviving suspects.
func (m *Monitor) RunProbes() (*ProbeReport, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	defer func(t0 time.Time) { m.probeDur.ObserveDuration(time.Since(t0)) }(time.Now())
	m.probeRounds.Add(1)
	rep := &ProbeReport{}
	for _, p := range m.probes {
		got := m.inj.Deliveries(&m.exec, p.cols, p.cells)
		n := m.probesRun.Add(1)
		rep.Probes++
		excited, err := m.tracker.Observe(p.a, p.res, got)
		if err != nil {
			return nil, fmt.Errorf("faultd: probe observation: %w", err)
		}
		if excited {
			rep.Failures++
			m.probeFailures.Add(1)
			m.detectedAtProbe.CompareAndSwap(0, n)
		}
	}
	rep.Detected = m.tracker.Detected()
	if rep.Detected {
		m.refreshModelsLocked()
		rep.Candidates = m.candidates
	}
	return rep, nil
}

// refreshModelsLocked rebuilds the quarantine fault models from the
// tracker's candidate set and bumps the policy version when the set
// changed. Each suspect switch contributes four models: stuck at either
// unicast setting, and a dead wire on either attached link — the
// deterministic envelope that also covers intermittent excitation of
// the same defect.
func (m *Monitor) refreshModelsLocked() {
	cand := m.tracker.Candidates()
	if suspectsEqual(cand, m.candidates) {
		return
	}
	m.candidates = cand
	m.models = nil
	if len(cand) <= m.cfg.MaxModelCandidates {
		for _, s := range cand {
			l0, l1 := m.shape[s.Col].Pair(s.Switch)
			m.models = append(m.models,
				Fault{Kind: StuckAt, Col: s.Col, Switch: s.Switch, Stuck: 0},
				Fault{Kind: StuckAt, Col: s.Col, Switch: s.Switch, Stuck: 1},
				Fault{Kind: DeadLink, Col: s.Col, Link: l0},
				Fault{Kind: DeadLink, Col: s.Col, Link: l1},
			)
		}
	}
	m.version.Add(1)
}

func suspectsEqual(a, b []diagnosis.Suspect) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// AfterEpoch implements groupd.FaultPolicy: every ProbeEvery-th epoch
// piggybacks a probe round between the serving epochs.
func (m *Monitor) AfterEpoch(epoch int64) {
	if m.cfg.ProbeEvery <= 0 || epoch%m.cfg.ProbeEvery != 0 {
		return
	}
	_, _ = m.RunProbes() // probe errors surface through Stats, not the epoch loop
}

// Version implements groupd.FaultPolicy: it increments whenever the
// quarantine state changes, invalidating cached degraded plans.
func (m *Monitor) Version() uint64 { return m.version.Load() }

// Healthy reports whether no probe has excited a fault so far — the
// signal internal/shard watches to quarantine a whole serving shard and
// migrate its groups to healthy fabrics.
func (m *Monitor) Healthy() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return !m.tracker.Detected()
}

// Stats is the monitor's counter snapshot — the numbers exposed on the
// daemon's stats surface (/healthz, /faults/report).
type Stats struct {
	ProbeRounds     uint64 `json:"probeRounds"`
	ProbesRun       uint64 `json:"probesRun"`
	ProbeFailures   uint64 `json:"probeFailures"`
	Detected        bool   `json:"detected"`
	DetectedAtProbe uint64 `json:"detectedAtProbe,omitempty"` // 1-based probe count at first detection
	Candidates      int    `json:"candidates"`
	QuarantinedOuts int    `json:"quarantinedOuts"`
	DegradedReplans uint64 `json:"degradedReplans"`
	Version         uint64 `json:"version"`
}

// Stats snapshots the counters.
func (m *Monitor) Stats() Stats {
	m.mu.Lock()
	cand := len(m.candidates)
	quarantined := len(m.quarantined)
	detected := m.tracker.Detected()
	m.mu.Unlock()
	return Stats{
		ProbeRounds:     m.probeRounds.Load(),
		ProbesRun:       m.probesRun.Load(),
		ProbeFailures:   m.probeFailures.Load(),
		Detected:        detected,
		DetectedAtProbe: m.detectedAtProbe.Load(),
		Candidates:      cand,
		QuarantinedOuts: quarantined,
		DegradedReplans: m.degradedReplans.Load(),
		Version:         m.version.Load(),
	}
}

// Report is the full externally visible fault-management state.
type Report struct {
	Stats Stats `json:"stats"`
	// Faults is the armed (chaos-injected) fault set — ground truth the
	// localizer does not get to see.
	Faults []Fault `json:"faults"`
	// Candidates is the localizer's surviving suspect set.
	Candidates []diagnosis.Suspect `json:"candidates,omitempty"`
	// Quarantined lists the output ports degraded replanning has
	// rejected so far, sorted.
	Quarantined []int `json:"quarantined,omitempty"`
}

// Report assembles the full state snapshot.
func (m *Monitor) Report() Report {
	rep := Report{Stats: m.Stats(), Faults: m.inj.List()}
	m.mu.Lock()
	rep.Candidates = append([]diagnosis.Suspect(nil), m.candidates...)
	for out := range m.quarantined {
		rep.Quarantined = append(rep.Quarantined, out)
	}
	m.mu.Unlock()
	sort.Ints(rep.Quarantined)
	return rep
}
