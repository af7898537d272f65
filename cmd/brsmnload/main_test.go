package main

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestParseFlagsDefaults(t *testing.T) {
	cfg, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.targets) != 1 || cfg.targets[0] != "http://127.0.0.1:8642" {
		t.Fatalf("default targets = %v", cfg.targets)
	}
	if cfg.scenario != "videoconf" || cfg.groups != 10000 || cfg.n != 1024 || cfg.workers != 16 {
		t.Fatalf("defaults = %+v", cfg)
	}
	if cfg.duration != 30*time.Second || cfg.zipfS != 1.3 || cfg.zipfV != 2 || cfg.seed != 1 {
		t.Fatalf("workload defaults = %+v", cfg)
	}
	if cfg.maxSize != 512 { // n/2
		t.Fatalf("maxSize default = %d", cfg.maxSize)
	}
	if cfg.out != "BENCH_cluster.json" {
		t.Fatalf("out default = %q", cfg.out)
	}
}

func TestParseFlagsErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-nope"},
		{"stray"},
		{"-targets", ""},
		{"-targets", "127.0.0.1:8642"}, // no scheme
		{"-scenario", "webinar"},
		{"-groups", "0"},
		{"-workers", "0"},
		{"-zipf-s", "1"},
		{"-n", "2"},
	} {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("parseFlags(%v) accepted", args)
		}
	}
}

func TestParseFlagsTargets(t *testing.T) {
	cfg, err := parseFlags([]string{"-targets", " http://a:1/, http://b:2 ,"})
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.targets) != 2 || cfg.targets[0] != "http://a:1" || cfg.targets[1] != "http://b:2" {
		t.Fatalf("targets = %v", cfg.targets)
	}
}

// TestPickOpMix checks the scenario traces have their intended shape:
// videoconf is churn-heavy, pubsub is read-dominated.
func TestPickOpMix(t *testing.T) {
	count := func(scenario string) map[string]int {
		r := rand.New(rand.NewSource(42))
		c := map[string]int{}
		for i := 0; i < 10000; i++ {
			c[pickOp(scenario, r)]++
		}
		return c
	}
	vc := count("videoconf")
	if churn := vc[opJoin] + vc[opLeave]; churn < 5000 {
		t.Fatalf("videoconf churn fraction too low: %v", vc)
	}
	ps := count("pubsub")
	if ps[opPlan] < 7000 {
		t.Fatalf("pubsub plan fraction too low: %v", ps)
	}
	for _, c := range []map[string]int{vc, ps} {
		for _, op := range []string{opPlan, opJoin, opLeave, opGet} {
			if c[op] == 0 {
				t.Fatalf("op %s never drawn: %v", op, c)
			}
		}
	}
}

// TestGroupSizes checks the Zipf population is bounded, positive, and
// heavy-tailed (most groups small, a few large).
func TestGroupSizes(t *testing.T) {
	cfg := config{groups: 5000, n: 1024, maxSize: 512, zipfS: 1.3, zipfV: 2}
	sizes := groupSizes(cfg, rand.New(rand.NewSource(7)))
	small, huge, max := 0, 0, 0
	for _, s := range sizes {
		if s < 1 || s > cfg.maxSize {
			t.Fatalf("size %d out of [1,%d]", s, cfg.maxSize)
		}
		if s <= 4 {
			small++
		}
		if s > cfg.maxSize/2 {
			huge++
		}
		if s > max {
			max = s
		}
	}
	// Heavy tail: small groups dominate, near-max groups are rare but
	// the distribution still reaches well past the head.
	if small < len(sizes)/4 {
		t.Fatalf("Zipf head too light: only %d/%d groups are small", small, len(sizes))
	}
	if huge > len(sizes)/10 {
		t.Fatalf("Zipf tail inverted: %d/%d groups are near-max", huge, len(sizes))
	}
	if max < 8 {
		t.Fatalf("no large groups drawn (max %d)", max)
	}
}

func TestPercentiles(t *testing.T) {
	if p := percentiles(nil); p.Count != 0 || p.P99 != 0 {
		t.Fatalf("empty percentiles = %+v", p)
	}
	ms := make([]float64, 100)
	for i := range ms {
		ms[i] = float64(i + 1) // 1..100
	}
	p := percentiles(ms)
	if p.Count != 100 || p.P50 != 50 || p.P95 != 95 || p.P99 != 99 || p.Max != 100 {
		t.Fatalf("percentiles = %+v", p)
	}
}

// TestRunLoadEndToEnd drives the full harness against a stub node that
// mimics the daemon's API shapes — including forwarding markers on a
// deterministic subset and 429 sheds — and checks the report
// classifies everything.
func TestRunLoadEndToEnd(t *testing.T) {
	var reqs atomic.Int64
	// Handlers run on concurrent goroutines: created is guarded by mu.
	var mu sync.Mutex
	created := map[string]bool{}
	mux := http.NewServeMux()
	stamp := func(w http.ResponseWriter, shed bool) bool {
		// Every 5th request pretends to have been proxied; every 50th
		// sheddable one is shed, exercising both report branches.
		k := reqs.Add(1)
		w.Header().Set("X-Brsmn-Node", "stub")
		if k%5 == 0 {
			w.Header().Set("X-Brsmn-Forwarded", "stub>other")
		}
		if shed && k%50 == 0 {
			w.WriteHeader(http.StatusTooManyRequests)
			return false
		}
		return true
	}
	mux.HandleFunc("POST /v1/groups", func(w http.ResponseWriter, r *http.Request) {
		stamp(w, false)
		var req struct {
			ID string `json:"id"`
		}
		json.NewDecoder(r.Body).Decode(&req)
		mu.Lock()
		created[req.ID] = true
		mu.Unlock()
		w.WriteHeader(http.StatusCreated)
		json.NewEncoder(w).Encode(map[string]any{"data": map[string]any{"id": req.ID}})
	})
	mux.HandleFunc("/v1/groups/", func(w http.ResponseWriter, r *http.Request) {
		if !stamp(w, true) {
			return
		}
		json.NewEncoder(w).Encode(map[string]any{"data": map[string]any{}})
	})
	mux.HandleFunc("GET /v1/cluster", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		groups := len(created)
		mu.Unlock()
		json.NewEncoder(w).Encode(map[string]any{"data": map[string]any{"groups": groups}})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	cfg, err := parseFlags([]string{
		"-targets", ts.URL, "-groups", "50", "-n", "16", "-workers", "4",
		"-duration", "150ms", "-seed", "3",
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := runLoad(cfg, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	nCreated := len(created)
	mu.Unlock()
	if nCreated != 50 {
		t.Fatalf("population created %d groups, want 50", nCreated)
	}
	if rep.Ops == 0 || rep.OpsPerSec == 0 {
		t.Fatalf("no ops recorded: %+v", rep)
	}
	if rep.Routes == 0 || rep.RoutesPerSec == 0 {
		t.Fatalf("no plan fetches recorded: %+v", rep)
	}
	if rep.Errors != 0 {
		t.Fatalf("%d transport errors against local stub", rep.Errors)
	}
	if rep.Forwarded == 0 || rep.ForwardRate <= 0 || rep.ForwardedLatencyMs.Count == 0 {
		t.Fatalf("forwarded samples not classified: %+v", rep)
	}
	if rep.Shed == 0 || rep.ShedRate <= 0 {
		t.Fatalf("shed samples not classified: %+v", rep)
	}
	if rep.LatencyMs.Count == 0 || rep.LatencyMs.P99 < rep.LatencyMs.P50 ||
		rep.LatencyMs.Max < rep.LatencyMs.P99 {
		t.Fatalf("latency summary inconsistent: %+v", rep.LatencyMs)
	}
	if rep.ForwardOverheadP50 <= 0 {
		t.Fatalf("forward overhead missing: %+v", rep)
	}
	if rep.ClusterGroupsAfter != 50 {
		t.Fatalf("cluster group count = %d, want 50", rep.ClusterGroupsAfter)
	}
	// The report must round-trip as JSON (it is the CI artifact).
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"routesPerSec", "shedRate", "forwardOverheadP50", "latencyMs", "clusterGroupsAfter"} {
		if !strings.Contains(string(raw), key) {
			t.Fatalf("report JSON missing %q: %s", key, raw)
		}
	}
}
