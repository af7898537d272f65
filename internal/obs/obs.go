// Package obs is the daemon's observability substrate: a dependency-free
// metrics registry (atomic counters, gauges and fixed-bucket latency
// histograms with Prometheus text exposition) plus a per-route trace
// recorder (trace.go) that stamps each planning stage with durations and
// the paper-level quantities — levels swept, α-splits eliminated, switch
// settings emitted.
//
// The package deliberately implements the minimal slice of the
// Prometheus text format (HELP/TYPE headers, counter/gauge/histogram
// families, inline label sets) rather than pulling in a client library:
// the serving hot path must stay allocation-free, and every instrument
// here is a handful of machine words updated with sync/atomic.
//
// Series are identified by their full exposition name, label set
// included, e.g.
//
//	brsmn_plan_cache_ops_total{op="hit"}
//
// The family name (everything before '{') groups series under one
// HELP/TYPE header. Registering the same series name twice returns the
// same instrument, so call sites may look instruments up lazily.
//
// Every instrument is nil-receiver safe: methods on a nil *Counter,
// *Gauge or *Histogram are no-ops, so subsystems wire metrics through
// optional pointers without guarding every update site.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down. It additionally tracks its
// own high-water mark (see Max) for occupancy-style instruments.
type Gauge struct {
	v    atomic.Int64
	peak atomic.Int64
}

// Set stores n.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
	g.raise(n)
}

// Add adds n (n may be negative).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.raise(g.v.Add(n))
}

func (g *Gauge) raise(n int64) {
	for {
		p := g.peak.Load()
		if n <= p || g.peak.CompareAndSwap(p, n) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Max returns the largest value the gauge has held.
func (g *Gauge) Max() int64 {
	if g == nil {
		return 0
	}
	return g.peak.Load()
}

// kind is the Prometheus exposition type of a series.
type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one registered exposition unit: a scalar sample read at
// scrape time, or a whole histogram family.
type series struct {
	name    string // full series name, labels included
	kind    kind
	read    func() float64 // scalar series
	hist    *Histogram     // histogram series
	counter *Counter       // backing instrument when created via Counter
	gauge   *Gauge         // backing instrument when created via Gauge
}

// Registry holds named instruments and renders them in Prometheus text
// format. It is safe for concurrent use; the zero value is not usable —
// construct with NewRegistry.
type Registry struct {
	mu     sync.Mutex
	order  []string // registration order of series names
	by     map[string]*series
	help   map[string]string // family -> help
	common string            // rendered label pair folded into every series at scrape
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{by: map[string]*series{}, help: map[string]string{}}
}

// SetCommonLabel installs one rendered label pair (e.g. `node="a"`) that
// WritePrometheus folds into every series at exposition time — the
// cluster-mode convention: each daemon stamps its node ID onto all of
// its series, so scrapes from several nodes merge into one corpus
// without collision, exactly like the shard="k" labels do within one
// process. Registration names are untouched (instruments are still
// looked up by their unlabeled names); only the rendered output changes.
// An empty label restores unlabeled output.
func (r *Registry) SetCommonLabel(label string) {
	r.mu.Lock()
	r.common = label
	r.mu.Unlock()
}

// WithLabel injects one rendered label pair (e.g. `shard="3"`) into a
// series name, folding it into an existing label set or opening a new
// one. An empty label returns the name unchanged, so call sites can
// thread an optional per-instance label through unconditionally:
//
//	WithLabel(`brsmn_plan_cache_ops_total{op="hit"}`, `shard="0"`)
//	  -> brsmn_plan_cache_ops_total{op="hit",shard="0"}
//	WithLabel("brsmn_groups", `shard="0"`) -> brsmn_groups{shard="0"}
//
// The family name is untouched, so all instances share one HELP/TYPE
// header — the sharded-daemon convention for per-shard series.
func WithLabel(name, label string) string {
	if label == "" {
		return name
	}
	if i := strings.LastIndexByte(name, '}'); i >= 0 {
		return name[:i] + "," + label + "}"
	}
	return name + "{" + label + "}"
}

// family is the series name with any label set stripped — the unit the
// HELP/TYPE headers apply to.
func family(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// register returns the series under name, creating it from blank when
// absent. fill populates a fresh series; re-registration under a
// different kind panics (a programming error, like Prometheus clients).
func (r *Registry) register(name, help string, k kind, fill func(*series)) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.by[name]; ok {
		if s.kind != k {
			panic(fmt.Sprintf("obs: series %q re-registered as %v (was %v)", name, k, s.kind))
		}
		return s
	}
	s := &series{name: name, kind: k}
	fill(s)
	r.by[name] = s
	r.order = append(r.order, name)
	if f := family(name); r.help[f] == "" {
		r.help[f] = help
	}
	return s
}

// Counter returns the counter registered under name (labels included),
// creating it on first use. Looking up a series registered via
// CounterFunc returns a detached instrument that does not feed it.
func (r *Registry) Counter(name, help string) *Counter {
	s := r.register(name, help, kindCounter, func(s *series) {
		s.counter = &Counter{}
		s.read = s.counter.Value64
	})
	if s.counter == nil {
		return &Counter{}
	}
	return s.counter
}

// Value64 adapts Value to the scrape-time sample signature.
func (c *Counter) Value64() float64 { return float64(c.Value()) }

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name, help string) *Gauge {
	s := r.register(name, help, kindGauge, func(s *series) {
		s.gauge = &Gauge{}
		s.read = s.gauge.Value64
	})
	if s.gauge == nil {
		return &Gauge{}
	}
	return s.gauge
}

// Value64 adapts Value to the scrape-time sample signature.
func (g *Gauge) Value64() float64 { return float64(g.Value()) }

// CounterFunc registers a counter whose value is read from fn at scrape
// time — for subsystems that already keep their own atomic counters.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(name, help, kindCounter, func(s *series) { s.read = fn })
}

// GaugeFunc registers a gauge read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, kindGauge, func(s *series) { s.read = fn })
}

// Histogram returns the histogram registered under name with the given
// ascending upper bucket bounds, creating it on first use. The +Inf
// bucket is implicit.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	s := r.register(name, help, kindHistogram, func(s *series) { s.hist = NewHistogram(bounds) })
	return s.hist
}

// WritePrometheus renders every registered series in Prometheus text
// exposition format, families sorted by name, series within a family in
// registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	snap := make(map[string]*series, len(names))
	for k, v := range r.by {
		snap[k] = v
	}
	helps := make(map[string]string, len(r.help))
	for k, v := range r.help {
		helps[k] = v
	}
	common := r.common
	r.mu.Unlock()

	// Group series by family, keeping registration order inside each.
	fams := make(map[string][]*series)
	var famOrder []string
	for _, n := range names {
		s := snap[n]
		f := family(n)
		if _, ok := fams[f]; !ok {
			famOrder = append(famOrder, f)
		}
		fams[f] = append(fams[f], s)
	}
	sort.Strings(famOrder)

	var b strings.Builder
	for _, f := range famOrder {
		ss := fams[f]
		if h := helps[f]; h != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f, h)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f, ss[0].kind)
		for _, s := range ss {
			name := WithLabel(s.name, common)
			if s.hist != nil {
				s.hist.write(&b, name)
				continue
			}
			fmt.Fprintf(&b, "%s %s\n", name, formatValue(s.read()))
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// formatValue renders a sample the way Prometheus expects: integers
// without an exponent, everything else via %g.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
