package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Stage is one extra named span appended to a RouteTrace by layers above
// the planner (plan flattening, codec encoding, cache interaction).
type Stage struct {
	Name       string `json:"name"`
	DurationNs int64  `json:"durationNs"`
}

// RouteTrace is the record of one traced planning run: per-stage
// durations plus the paper-level quantities of the route — the levels
// swept, the α-splits the scatter networks eliminated, the idle (ε)
// inputs, and the switch settings emitted (Yang & Wang's O(n log² n)
// gate / O(log² n) routing-time accounting, Section 7).
//
// The stage fields sum the time spent in that stage over every node of
// the recursion; TotalNs is the wall-clock time of the whole run.
type RouteTrace struct {
	// Key identifies what was routed — a group ID for groupd replans.
	Key  string    `json:"key,omitempty"`
	N    int       `json:"n"`
	When time.Time `json:"when"`
	// TotalNs is the wall-clock duration of the whole planning run.
	TotalNs int64 `json:"totalNs"`

	// Stage durations, summed over every node of the sub-BRSMN
	// recursion.
	ScatterNs int64 `json:"scatterNs"` // BSN pass 1: α-elimination sweeps
	QuasiNs   int64 `json:"quasiNs"`   // BSN pass 2: quasisort sweeps
	AdvanceNs int64 `json:"advanceNs"` // routing-tag sequence advancement
	DeliverNs int64 `json:"deliverNs"` // final 2x2 column realization
	CloneNs   int64 `json:"cloneNs"`   // result detach (Result.Clone)

	// Paper-level quantities.
	LevelsSwept int `json:"levelsSwept"` // log2(n) recursion levels
	BSNs        int `json:"bsns"`        // sub-BSN instances routed
	AlphaSplits int `json:"alphaSplits"` // broadcast switches set (α-eliminations)
	IdleInputs  int `json:"idleInputs"`  // ε inputs entering the network
	Fanout      int `json:"fanout"`      // total (source, output) connections
	Settings    int `json:"settings"`    // switch settings emitted, final column included
	Columns     int `json:"columns"`     // physical column depth of the emitted program

	// Extra carries spans appended by higher layers (flatten, encode…).
	Extra []Stage `json:"extra,omitempty"`
}

// AddStage appends a named span. Not safe for concurrent use; call it
// only from the single goroutine that owns the trace.
func (t *RouteTrace) AddStage(name string, d time.Duration) {
	t.Extra = append(t.Extra, Stage{Name: name, DurationNs: int64(d)})
}

// TraceRecorder keeps the last completed RouteTrace per key and decides,
// via 1-in-sample counting per key, which planning runs to trace at all.
// A nil recorder is valid and never samples, so call sites wire it
// through optional pointers. Safe for concurrent use.
type TraceRecorder struct {
	sample uint64 // trace every sample-th run per key; 0 disables

	mu    sync.RWMutex
	last  map[string]*RouteTrace
	seen  map[string]*atomic.Uint64
	total atomic.Uint64 // traces recorded
}

// NewTraceRecorder returns a recorder tracing every sample-th planning
// run per key; sample <= 0 disables sampling (Last still serves traces
// recorded by explicit callers).
func NewTraceRecorder(sample int) *TraceRecorder {
	if sample < 0 {
		sample = 0
	}
	return &TraceRecorder{
		sample: uint64(sample),
		last:   map[string]*RouteTrace{},
		seen:   map[string]*atomic.Uint64{},
	}
}

// ShouldSample reports whether the next planning run for key should be
// traced, advancing the per-key counter. The first run of every key is
// always sampled (so /trace/{key} has data as soon as a key exists).
func (r *TraceRecorder) ShouldSample(key string) bool {
	if r == nil || r.sample == 0 {
		return false
	}
	r.mu.RLock()
	c := r.seen[key]
	r.mu.RUnlock()
	if c == nil {
		r.mu.Lock()
		if c = r.seen[key]; c == nil {
			c = &atomic.Uint64{}
			r.seen[key] = c
		}
		r.mu.Unlock()
	}
	return (c.Add(1)-1)%r.sample == 0
}

// Record stores t as the last trace for t.Key.
func (r *TraceRecorder) Record(t *RouteTrace) {
	if r == nil || t == nil {
		return
	}
	r.mu.Lock()
	r.last[t.Key] = t
	r.mu.Unlock()
	r.total.Add(1)
}

// Last returns the most recent trace recorded for key, or nil.
func (r *TraceRecorder) Last(key string) *RouteTrace {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.last[key]
}

// Keys returns the keys with a recorded trace, unordered.
func (r *TraceRecorder) Keys() []string {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.last))
	for k := range r.last {
		out = append(out, k)
	}
	return out
}

// Total returns the number of traces recorded.
func (r *TraceRecorder) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.total.Load()
}
