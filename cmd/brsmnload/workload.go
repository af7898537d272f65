package main

// The workload engine: build the group population, run the timed churn
// phase, aggregate per-op samples into the SLO report.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"
)

// Op kinds sampled by the run phase.
const (
	opPlan  = "plan"
	opJoin  = "join"
	opLeave = "leave"
	opGet   = "get"
)

// scenarioMix returns the cumulative op-mix thresholds for one draw in
// [0,1): plan, join, leave, get in that order.
func scenarioMix(scenario string) [3]float64 {
	switch scenario {
	case "pubsub":
		// Read-dominated: 75% plan, 10% join, 5% leave, 10% get.
		return [3]float64{0.75, 0.85, 0.90}
	default: // videoconf
		// Churn-heavy: 35% plan, 30% join, 30% leave, 5% get.
		return [3]float64{0.35, 0.65, 0.95}
	}
}

// pickOp draws one op kind from the scenario mix.
func pickOp(scenario string, r *rand.Rand) string {
	mix := scenarioMix(scenario)
	switch f := r.Float64(); {
	case f < mix[0]:
		return opPlan
	case f < mix[1]:
		return opJoin
	case f < mix[2]:
		return opLeave
	default:
		return opGet
	}
}

// groupSizes draws the Zipf-distributed member counts for the
// population. Sizes are at least 1 (the source always exists besides
// the members) and capped at maxSize.
func groupSizes(cfg config, r *rand.Rand) []int {
	z := rand.NewZipf(r, cfg.zipfS, cfg.zipfV, uint64(cfg.maxSize-1))
	sizes := make([]int, cfg.groups)
	for i := range sizes {
		sizes[i] = int(z.Uint64()) + 1
	}
	return sizes
}

// sample is one completed request. For async samples ms spans submit
// through ticket completion (observed via ?wait long-polls) and
// submitMs is just the 202 round-trip.
type sample struct {
	op        string
	ms        float64
	status    int
	forwarded bool
	err       bool
	async     bool
	submitMs  float64
}

// Percentiles summarizes a latency population in milliseconds.
type Percentiles struct {
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
	Count int     `json:"count"`
}

// percentiles computes the summary; ms is sorted in place.
func percentiles(ms []float64) Percentiles {
	if len(ms) == 0 {
		return Percentiles{}
	}
	sort.Float64s(ms)
	at := func(q float64) float64 {
		i := int(q * float64(len(ms)-1))
		return ms[i]
	}
	return Percentiles{
		P50:   at(0.50),
		P95:   at(0.95),
		P99:   at(0.99),
		Max:   ms[len(ms)-1],
		Count: len(ms),
	}
}

// Report is the BENCH_cluster.json shape.
type Report struct {
	Scenario        string   `json:"scenario"`
	Targets         []string `json:"targets"`
	Groups          int      `json:"groups"`
	N               int      `json:"n"`
	Workers         int      `json:"workers"`
	Seed            int64    `json:"seed"`
	DurationSeconds float64  `json:"durationSeconds"`

	Ops          int     `json:"ops"`
	OpsPerSec    float64 `json:"opsPerSec"`
	Routes       int     `json:"routes"`
	RoutesPerSec float64 `json:"routesPerSec"`

	Shed     int     `json:"shed"`
	ShedRate float64 `json:"shedRate"`
	Errors   int     `json:"errors"`

	Forwarded   int     `json:"forwarded"`
	ForwardRate float64 `json:"forwardRate"`
	// ForwardOverheadP50 prices the extra hop: forwarded p50 over local
	// p50 (0 when either population is empty).
	ForwardOverheadP50 float64 `json:"forwardOverheadP50"`

	LatencyMs          Percentiles `json:"latencyMs"`
	LocalLatencyMs     Percentiles `json:"localLatencyMs"`
	ForwardedLatencyMs Percentiles `json:"forwardedLatencyMs"`
	PlanLatencyMs      Percentiles `json:"planLatencyMs"`

	// Async* summarize the ticketed fraction of the run (-async):
	// submit is the POST /v1/tickets 202 round-trip, complete spans
	// submit through the ticket reporting done.
	AsyncFraction          float64     `json:"asyncFraction"`
	AsyncOps               int         `json:"asyncOps"`
	AsyncSubmitLatencyMs   Percentiles `json:"asyncSubmitLatencyMs"`
	AsyncCompleteLatencyMs Percentiles `json:"asyncCompleteLatencyMs"`

	// ClusterGroups* are the /v1/cluster group totals around the run;
	// equal values across a drain mean zero groups were lost. Zero when
	// the targets are not in cluster mode.
	ClusterGroupsBefore int64   `json:"clusterGroupsBefore"`
	ClusterGroupsAfter  int64   `json:"clusterGroupsAfter"`
	SetupSeconds        float64 `json:"setupSeconds"`
}

// loader is the shared run state.
type loader struct {
	cfg    config
	client *http.Client
	ids    []string
	logf   func(format string, args ...any)
}

// runLoad executes the full benchmark: populate, churn, report.
func runLoad(cfg config, logf func(format string, args ...any)) (*Report, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	l := &loader{
		cfg:    cfg,
		client: &http.Client{Timeout: cfg.timeout},
		logf:   logf,
	}
	rep := &Report{
		Scenario: cfg.scenario,
		Targets:  cfg.targets,
		Groups:   cfg.groups,
		N:        cfg.n,
		Workers:  cfg.workers,
		Seed:     cfg.seed,
	}
	rep.ClusterGroupsBefore = l.clusterGroups()

	setupStart := time.Now()
	if err := l.populate(); err != nil {
		return nil, err
	}
	rep.SetupSeconds = time.Since(setupStart).Seconds()
	logf("brsmnload: created %d groups in %.1fs", cfg.groups, rep.SetupSeconds)

	samples := l.churn()
	rep.ClusterGroupsAfter = l.clusterGroups()

	rep.DurationSeconds = cfg.duration.Seconds()
	rep.AsyncFraction = cfg.async
	var all, local, fwd, plan, asub, adone []float64
	for _, s := range samples {
		if s.err {
			rep.Errors++
			continue
		}
		rep.Ops++
		if s.status == http.StatusTooManyRequests {
			rep.Shed++
			continue
		}
		if s.async {
			// Ticketed ops are summarized separately: their end-to-end
			// time includes the poll loop's round-trips, so folding them
			// into the sync pools would skew those percentiles.
			rep.AsyncOps++
			asub = append(asub, s.submitMs)
			adone = append(adone, s.ms)
			if s.op == opPlan {
				rep.Routes++
			}
			continue
		}
		all = append(all, s.ms)
		if s.forwarded {
			rep.Forwarded++
			fwd = append(fwd, s.ms)
		} else {
			local = append(local, s.ms)
		}
		if s.op == opPlan {
			rep.Routes++
			plan = append(plan, s.ms)
		}
	}
	if rep.Ops > 0 {
		rep.ShedRate = float64(rep.Shed) / float64(rep.Ops)
		rep.ForwardRate = float64(rep.Forwarded) / float64(rep.Ops)
	}
	if rep.DurationSeconds > 0 {
		rep.OpsPerSec = float64(rep.Ops) / rep.DurationSeconds
		rep.RoutesPerSec = float64(rep.Routes) / rep.DurationSeconds
	}
	rep.LatencyMs = percentiles(all)
	rep.LocalLatencyMs = percentiles(local)
	rep.ForwardedLatencyMs = percentiles(fwd)
	rep.PlanLatencyMs = percentiles(plan)
	rep.AsyncSubmitLatencyMs = percentiles(asub)
	rep.AsyncCompleteLatencyMs = percentiles(adone)
	if rep.LocalLatencyMs.P50 > 0 && rep.ForwardedLatencyMs.Count > 0 {
		rep.ForwardOverheadP50 = rep.ForwardedLatencyMs.P50 / rep.LocalLatencyMs.P50
	}
	return rep, nil
}

// target picks the node a request goes to: round-robin by index so load
// (and therefore forwarding) spreads evenly regardless of ownership.
func (l *loader) target(i int) string { return l.cfg.targets[i%len(l.cfg.targets)] }

// populate creates the Zipf-sized group population across all targets.
func (l *loader) populate() error {
	root := rand.New(rand.NewSource(l.cfg.seed))
	sizes := groupSizes(l.cfg, root)
	l.ids = make([]string, l.cfg.groups)
	memberSeed := root.Int63()

	errc := make(chan error, l.cfg.workers)
	var wg sync.WaitGroup
	for w := 0; w < l.cfg.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(memberSeed + int64(w)))
			for i := w; i < l.cfg.groups; i += l.cfg.workers {
				id := fmt.Sprintf("load-g%06d", i)
				l.ids[i] = id
				// Members must be distinct output ports — the registry
				// rejects a create with duplicates, exactly like a double
				// join.
				members := r.Perm(l.cfg.n)[:sizes[i]]
				body, _ := json.Marshal(map[string]any{
					"id": id, "source": r.Intn(l.cfg.n), "members": members,
				})
				status, _, err := l.do(http.MethodPost, l.target(i), "/v1/groups", body)
				if err != nil {
					errc <- fmt.Errorf("creating %s: %w", id, err)
					return
				}
				// 409 means a previous run left the group behind; the churn
				// phase treats it the same.
				if status != http.StatusCreated && status != http.StatusConflict &&
					status != http.StatusTooManyRequests {
					errc <- fmt.Errorf("creating %s: HTTP %d", id, status)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errc:
		return err
	default:
		return nil
	}
}

// churn runs the timed phase: every worker loops scenario ops against
// Zipf-popular groups until the clock runs out.
func (l *loader) churn() []sample {
	deadline := time.Now().Add(l.cfg.duration)
	out := make([][]sample, l.cfg.workers)
	var wg sync.WaitGroup
	for w := 0; w < l.cfg.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(l.cfg.seed + 7919*int64(w+1)))
			// Popularity is Zipf too: hot groups get most of the traffic.
			pop := rand.NewZipf(r, l.cfg.zipfS, l.cfg.zipfV, uint64(len(l.ids)-1))
			var samples []sample
			for i := 0; time.Now().Before(deadline); i++ {
				id := l.ids[int(pop.Uint64())]
				samples = append(samples, l.oneOp(r, id, l.target(w+i)))
			}
			out[w] = samples
		}(w)
	}
	wg.Wait()
	var all []sample
	for _, s := range out {
		all = append(all, s...)
	}
	return all
}

// oneOp executes a single scenario op and samples it.
func (l *loader) oneOp(r *rand.Rand, id, base string) sample {
	op := pickOp(l.cfg.scenario, r)
	// A -async fraction of the admission ops goes through the ticket
	// surface instead (get has no async form — it is a plain read).
	if op != opGet && l.cfg.async > 0 && r.Float64() < l.cfg.async {
		return l.asyncOp(r, op, id, base)
	}
	var method, path string
	var body []byte
	switch op {
	case opPlan:
		method, path = http.MethodGet, "/v1/groups/"+id+"/plan"
	case opJoin:
		method, path = http.MethodPost, "/v1/groups/"+id+"/join"
		body, _ = json.Marshal(map[string]int{"dest": r.Intn(l.cfg.n)})
	case opLeave:
		method, path = http.MethodPost, "/v1/groups/"+id+"/leave"
		body, _ = json.Marshal(map[string]int{"dest": r.Intn(l.cfg.n)})
	default:
		method, path = http.MethodGet, "/v1/groups/"+id
	}
	start := time.Now()
	status, forwarded, err := l.do(method, base, path, body)
	return sample{
		op:        op,
		ms:        float64(time.Since(start).Microseconds()) / 1000,
		status:    status,
		forwarded: forwarded,
		err:       err != nil,
	}
}

// asyncOp submits op as a ticket (POST /v1/tickets), then long-polls
// GET /v1/tickets/{id}?wait= until the ticket reports done. Both the
// 202 round-trip and the end-to-end completion land in the sample.
func (l *loader) asyncOp(r *rand.Rand, op, id, base string) sample {
	payload := map[string]any{"op": op, "group": id}
	if op == opJoin || op == opLeave {
		payload["dest"] = r.Intn(l.cfg.n)
	}
	body, _ := json.Marshal(payload)
	start := time.Now()
	status, forwarded, raw, err := l.doRead(http.MethodPost, base, "/v1/tickets", body)
	s := sample{
		op:        op,
		ms:        float64(time.Since(start).Microseconds()) / 1000,
		status:    status,
		forwarded: forwarded,
		err:       err != nil,
		async:     true,
	}
	s.submitMs = s.ms
	if err != nil || status != http.StatusAccepted {
		return s
	}
	var env struct {
		Data struct {
			Ticket struct {
				ID    string `json:"id"`
				State string `json:"state"`
			} `json:"ticket"`
		} `json:"data"`
	}
	if json.Unmarshal(raw, &env) != nil || env.Data.Ticket.ID == "" {
		s.err = true
		return s
	}
	path := "/v1/tickets/" + env.Data.Ticket.ID + "?wait=5s"
	for state := env.Data.Ticket.State; state != "done"; {
		st, _, raw, err := l.doRead(http.MethodGet, base, path, nil)
		if err != nil || st != http.StatusOK {
			s.err = true
			break
		}
		var poll struct {
			Data struct {
				State string `json:"state"`
			} `json:"data"`
		}
		if json.Unmarshal(raw, &poll) != nil || poll.Data.State == "" {
			s.err = true
			break
		}
		state = poll.Data.State
	}
	s.ms = float64(time.Since(start).Microseconds()) / 1000
	return s
}

// do issues one request, draining the body so connections are reused.
// The boolean reports whether the serving node forwarded it.
func (l *loader) do(method, base, path string, body []byte) (int, bool, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, base+path, rd)
	if err != nil {
		return 0, false, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := l.client.Do(req)
	if err != nil {
		return 0, false, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("X-Brsmn-Forwarded") != "", nil
}

// doRead is do but returns the response body, for callers that parse
// the envelope (the async ticket path).
func (l *loader) doRead(method, base, path string, body []byte) (int, bool, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, base+path, rd)
	if err != nil {
		return 0, false, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := l.client.Do(req)
	if err != nil {
		return 0, false, nil, err
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("X-Brsmn-Forwarded") != "", raw, err
}

// clusterGroups sums group counts across the cluster via the first
// target's membership view; 0 when the target is not in cluster mode.
func (l *loader) clusterGroups() int64 {
	resp, err := l.client.Get(l.cfg.targets[0] + "/v1/cluster")
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return 0
	}
	var env struct {
		Data struct {
			Groups int64 `json:"groups"`
		} `json:"data"`
	}
	if json.NewDecoder(resp.Body).Decode(&env) != nil {
		return 0
	}
	return env.Data.Groups
}
