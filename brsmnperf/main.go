// Command brsmnperf is the repository benchmark. It starts the brsmnd
// binary built from the checkout, drives it over loopback /v1 from two
// closed-loop clients with one keep-alive connection each, checks every
// answer, and prints the end-to-end metrics of one named workload. With
// --trace 1 it instead reports per-layer metrics: the daemon's /metrics
// deltas over the timed phase for the api, shard and groupd layers, plus
// an in-process replay of the run's misses, epoch rounds and stateless
// requests through the core, fabric, plancodec, sched and controller
// entry points.
//
// Usage (from the repository root; run.sh builds both binaries):
//
//	bash brsmnperf/run.sh --workload read-hot --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: {"correct",
// "attempted", "failed", "metrics"}. The lines before it give the
// environment, every metric with its unit, and the per-class sample
// counts. See README.md for the workloads and the layer table.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// netSize is the network size of every workload.
const netSize = 1024

// workload is one named traffic mix.
type workload struct {
	name string
	// flags are the brsmnd flags besides -addr.
	flags []string
	// rate is the nominal ops/s of both clients together on the
	// reference box; a run's trace holds seconds*rate ops, so that its
	// timed phase takes about --seconds there while the work stays a
	// function of the seed.
	rate float64
	// build makes the seeded trace for a given total op count.
	build func(seed int64, ops int) *trace
	// epochReplay replays one epoch (sched + controller) in the traced run.
	epochReplay bool
	// setups is how many times a run sets up; setup_s is their median.
	setups int
	// pace, when non-zero, is the rate in ops/s at which the two clients
	// together aim to send the timed ops (see client.interval); 0 leaves
	// them closed-loop at full speed.
	pace float64
}

// readHotRate gives read-hot (and epoch-on) 1300 ops per second: at
// --seconds 8, 10400 ops, of which exactly 1040 are changes, leaving ten
// change samples beyond the p99.
const readHotRate = 1300

var epochsOff = []string{"-n", "1024", "-epoch", "0", "-epoch-threshold", "0"}

var workloads = []workload{
	{
		name:   "read-hot",
		flags:  epochsOff,
		rate:   readHotRate,
		build:  func(seed int64, ops int) *trace { return readHotTrace(seed, netSize, 2000, ops/clients) },
		setups: 3,
	},
	{
		name:  "churn-replan",
		flags: epochsOff,
		rate:  800,
		build: func(seed int64, ops int) *trace {
			return churnTrace(seed, netSize, 6000, 2050, ops/clients/(2*burstLen))
		},
		setups: 3,
	},
	{
		name:  "epoch-on",
		flags: []string{"-n", "1024"},
		// The same trace as read-hot, paced. At the shipped settings the
		// epoch loop never idles, and at full speed the split of the two
		// vCPUs between it and the clients swung whole runs between two
		// modes (plan_p50_ms 1.2 to 2.1 ms). Paced below capacity, the
		// requests no longer race the loop for throughput, and its cost
		// shows as CPU per op at a fixed rate.
		rate:        readHotRate,
		build:       func(seed int64, ops int) *trace { return readHotTrace(seed, netSize, 2000, ops/clients) },
		epochReplay: true,
		setups:      3,
		pace:        500,
	},
	{
		name:  "stateless-plan",
		flags: epochsOff,
		rate:  450,
		build: func(seed int64, ops int) *trace { return statelessTrace(seed, netSize, 256, 64, ops/clients) },
		// A set-up here is only about half a second, most of it daemon
		// start, so more of them are needed for a steady median.
		setups: 7,
	},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Int64("seed", 1, "trace seed")
		seconds = flag.Int("seconds", 8, "nominal length of the timed phase")
		traced  = flag.Int("trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
		bin     = flag.String("daemon", "", "path of the brsmnd binary")
	)
	flag.Parse()
	if err := mainErr(*name, *seed, *seconds, *traced, *bin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "brsmnperf:", err)
		os.Exit(1)
	}
}

// setupCap bounds a run's set-ups together. With the timed phase's cap
// of 3*seconds+30s it keeps a run of --seconds 8 well inside 180s even
// against a daemon that is several times slower than expected.
const setupCap = 90 * time.Second

func mainErr(name string, seed int64, seconds, traced int, bin string, out io.Writer) error {
	wl, err := findWorkload(name)
	if err != nil {
		return err
	}
	if seconds < 1 || (traced != 0 && traced != 1) {
		return errors.New("want --seconds >= 1 and --trace 0 or 1")
	}
	if bin == "" {
		return errors.New("no -daemon binary (run through run.sh)")
	}
	cfg := runConfig{wl: wl, seed: seed, ops: int(float64(seconds) * wl.rate), traced: traced == 1,
		bin: bin, setups: wl.setups, deadline: time.Duration(seconds)*3*time.Second + 30*time.Second}
	env := environment(cfg)
	res, err := execute(cfg)
	if err != nil {
		return err
	}
	env["host_steal_pct"] = res.stealPct
	return report(out, env, res)
}

// runConfig is one invocation.
type runConfig struct {
	wl       workload
	seed     int64
	ops      int // total timed ops, both clients
	traced   bool
	bin      string
	setups   int
	deadline time.Duration // hard cap on the timed phase
}

// result is what a run measured.
type result struct {
	cfg       runConfig
	t         *trace
	attempted int
	failed    int
	failures  []string
	checked   int
	checkTime time.Duration
	late      int

	setupS  []float64
	elapsed time.Duration
	spans   []span
	// plan and change are the sorted latencies (ms) of the timed plan
	// requests and change acknowledgements.
	plan, change []float64
	cpuS         float64
	rssMB        float64
	stealPct     float64
	metrics      scrape // daemon counter deltas over the timed phase (traced)
	replay       *replayResult
}

// execute sets up cfg.setups times (keeping the last daemon), runs the
// timed phase, stops the daemon and checks the outputs.
func execute(cfg runConfig) (*result, error) {
	t := cfg.wl.build(cfg.seed, cfg.ops)
	r := &result{cfg: cfg, t: t}
	var d *daemon
	var cs []*client
	for i := 0; i < cfg.setups; i++ {
		if d != nil {
			closeAll(cs)
			d.stop()
		}
		start := time.Now()
		var err error
		d, err = startDaemon(cfg.bin, cfg.wl.flags)
		if err != nil {
			return nil, err
		}
		cs = newClients(d.base, t)
		ctx, cancel := context.WithTimeout(context.Background(), setupCap/time.Duration(cfg.setups))
		runAll(ctx, cs, func(c *client) []op { return t.setup[c.id] }, false, nil)
		late := ctx.Err() != nil
		cancel()
		if late {
			closeAll(cs)
			d.stop()
			return nil, fmt.Errorf("set-up %d did not finish within %v", i+1, setupCap/time.Duration(cfg.setups))
		}
		r.setupS = append(r.setupS, time.Since(start).Seconds())
		for _, c := range cs {
			r.attempted += c.res.attempted
			r.failed += c.res.failed
			if c.res.firstErr != "" {
				r.failures = append(r.failures, "set-up: "+c.res.firstErr)
			}
			c.res = clientResult{}
		}
	}
	defer d.stop()
	defer closeAll(cs)

	var before scrape
	var err error
	if cfg.traced {
		if before, err = scrapeMetrics(d.base); err != nil {
			return nil, err
		}
	}
	cpu0, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	host0, err := readHostCPU()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), cfg.deadline)
	defer cancel()
	var turn *[clients]chan struct{}
	if t.takeTurns {
		turn = &[clients]chan struct{}{make(chan struct{}, 1), make(chan struct{}, 1)}
		turn[0] <- struct{}{}
	}
	if p := cfg.wl.pace; p > 0 {
		for _, c := range cs {
			c.interval = time.Duration(float64(clients) / p * float64(time.Second))
		}
	}
	t0 := time.Now()
	runAll(ctx, cs, func(c *client) []op { return t.timed[c.id] }, true, turn)
	r.elapsed = time.Since(t0)
	cpu1, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	host1, err := readHostCPU()
	if err != nil {
		return nil, err
	}
	r.cpuS = cpu1 - cpu0
	r.stealPct = stealPct(host0, host1)
	if r.rssMB, err = d.memMB("VmHWM"); err != nil {
		return nil, err
	}
	if cfg.traced {
		after, err := scrapeMetrics(d.base)
		if err != nil {
			return nil, err
		}
		r.metrics = delta(before, after)
	}
	closeAll(cs)
	d.stop()

	planned := 0
	for _, c := range cs {
		planned += len(t.timed[c.id])
		r.attempted += c.res.attempted
		r.failed += c.res.failed
		r.spans = append(r.spans, c.res.spans...)
		r.late += c.res.late
		if c.res.firstErr != "" {
			r.failures = append(r.failures, c.res.firstErr)
		}
	}
	if missed := planned - len(r.spans); missed > 0 {
		// Ops the deadline cut off count as attempted and failed.
		r.attempted += missed
		r.failed += missed
		r.failures = append(r.failures, fmt.Sprintf("timed phase hit its %v cap with %d ops unsent", cfg.deadline, missed))
	}
	r.plan = latencies(r.spans, opPlan, opStateless)
	r.change = latencies(r.spans, opJoin, opLeave)
	checkStart := time.Now()
	checked, bad := checkOutputs(t, cs, runtime.GOMAXPROCS(0))
	r.checked, r.checkTime = checked, time.Since(checkStart)
	r.failed += len(bad)
	r.failures = append(r.failures, bad...)
	if cfg.traced {
		if r.replay, err = replay(t, cfg.wl.epochReplay); err != nil {
			r.failed++
			r.failures = append(r.failures, "replay: "+err.Error())
		}
	}
	return r, nil
}

func newClients(base string, t *trace) []*client {
	cs := make([]*client, clients)
	for i := range cs {
		cs[i] = newClient(i, base, t)
	}
	return cs
}

func closeAll(cs []*client) {
	for _, c := range cs {
		c.close()
	}
}

// runAll runs every client's ops concurrently and waits for all.
func runAll(ctx context.Context, cs []*client, ops func(*client) []op, record bool, turn *[clients]chan struct{}) {
	var wg sync.WaitGroup
	t0 := time.Now()
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.run(ctx, ops(c), t0, record, turn)
		}(c)
	}
	wg.Wait()
}

// environment records what the numbers were measured on.
func environment(cfg runConfig) map[string]any {
	env := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(),
		"daemon":     append([]string{filepath.Base(cfg.bin), "-addr", "127.0.0.1:<free>"}, cfg.wl.flags...),
		"workload":   cfg.wl.name,
		"seed":       cfg.seed,
		"ops":        cfg.ops,
		"setups":     cfg.setups,
	}
	return env
}

// commit names the measured source: the git commit when the checkout is
// a repository, otherwise a hash of the repository's Go sources and
// module files (the benchmark runs from the repository root).
func commit() string {
	if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() && strings.HasPrefix(e.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if e.IsDir() || !(strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "go.mod")) {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return fmt.Sprintf("src-sha256:%x", h.Sum(nil)[:8])
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// quantile is the nearest-rank q-quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// latencies returns the sorted durations (ms) of the spans of the given kinds.
func latencies(spans []span, kinds ...opKind) []float64 {
	var out []float64
	for _, s := range spans {
		for _, k := range kinds {
			if s.kind == k {
				out = append(out, float64(s.end-s.start)/1e6)
				break
			}
		}
	}
	sort.Float64s(out)
	return out
}

// e2eMetrics computes the end-to-end metrics. The p99s are not among
// them: host steal on a shared VM moves them far more than any bound a
// regression check could use (see README.md); they are printed with
// every run and reported by the traced run as tail.* metrics.
func e2eMetrics(r *result) map[string]metric {
	ops := float64(len(r.spans))
	return map[string]metric{
		"setup_s":       {median(r.setupS), "s"},
		"plan_p50_ms":   {quantile(r.plan, 0.50), "ms"},
		"change_p50_ms": {quantile(r.change, 0.50), "ms"},
		"cpu_ms_per_op": {1000 * r.cpuS / ops, "ms"},
		"rss_peak_mb":   {r.rssMB, "MiB"},
	}
}

// report prints the environment, every metric by name and unit, and
// the result line.
func report(out io.Writer, env map[string]any, r *result) error {
	errRate := 0.0
	if r.attempted > 0 {
		errRate = float64(r.failed) / float64(r.attempted)
	}
	envLine, err := json.Marshal(map[string]any{"env": env})
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(envLine))
	fmt.Fprintf(out, "# %s seed=%d: %d timed ops in %.2fs (%.0f ops/s), %d plan + %d change samples, %d plans checked, steal %.2f%%\n",
		r.cfg.wl.name, r.cfg.seed, len(r.spans), r.elapsed.Seconds(), float64(len(r.spans))/r.elapsed.Seconds(),
		len(r.plan), len(r.change), r.checked, r.stealPct)
	fmt.Fprintf(out, "# setup_s runs: %v; output check %.1fs\n", r.setupS, r.checkTime.Seconds())
	if r.cfg.wl.pace > 0 {
		fmt.Fprintf(out, "# paced at %.0f ops/s: %d ops sent more than one interval after the previous one\n", r.cfg.wl.pace, r.late)
	}
	fmt.Fprintf(out, "# plan_p50_ms by second: %s\n", fmtMs(slicedP50(r.spans, r.elapsed, opPlan, opStateless)))
	fmt.Fprintf(out, "# change_p50_ms by second: %s\n", fmtMs(slicedP50(r.spans, r.elapsed, opJoin, opLeave)))
	for _, f := range r.failures {
		fmt.Fprintf(out, "# failure: %s\n", f)
	}
	e2e := e2eMetrics(r)
	metrics := e2e
	if r.cfg.traced {
		metrics = layerMetrics(r, e2e)
	}
	names := make([]string, 0, len(metrics))
	for k := range metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	if r.cfg.traced {
		fmt.Fprintf(out, "# untraced-equivalent e2e of this traced run: plan_p50_ms %.4f, cpu_ms_per_op %.4f\n",
			e2e["plan_p50_ms"].Value, e2e["cpu_ms_per_op"].Value)
	}
	fmt.Fprintf(out, "%-28s %14.6f  %s (unbounded)\n", "error_rate", errRate, "ratio")
	fmt.Fprintf(out, "%-28s %14.4f  %s (unbounded)\n", "plan_p99_ms", quantile(r.plan, 0.99), "ms")
	fmt.Fprintf(out, "%-28s %14.4f  %s (unbounded)\n", "change_p99_ms", quantile(r.change, 0.99), "ms")
	for _, k := range names {
		fmt.Fprintf(out, "%-28s %14.4f  %s\n", k, metrics[k].Value, metrics[k].Unit)
	}
	for k, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			// JSON has no NaN; a metric with no samples is a failed run.
			metrics[k] = metric{0, m.Unit}
			r.failed++
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(line))
	return err
}

// slicedP50 splits the timed phase into one-second slices by request
// start and returns the median latency (ms) of the given kinds in each.
func slicedP50(spans []span, elapsed time.Duration, kinds ...opKind) []float64 {
	k := int(elapsed / time.Second)
	if k < 1 {
		k = 1
	}
	slices := make([][]span, k)
	for _, s := range spans {
		i := int(int64(k) * s.start / elapsed.Nanoseconds())
		if i >= k {
			i = k - 1
		}
		slices[i] = append(slices[i], s)
	}
	out := make([]float64, k)
	for i, ss := range slices {
		out[i] = quantile(latencies(ss, kinds...), 0.5)
	}
	return out
}

func fmtMs(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}
