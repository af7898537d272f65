package main

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestParseFlagsDefaults(t *testing.T) {
	cfg, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.addr != ":8642" || cfg.n != 1024 {
		t.Fatalf("defaults = %+v", cfg)
	}
	if cfg.epochPeriod != 250*time.Millisecond || cfg.epochThreshold != 64 || cfg.cacheSize != 4096 {
		t.Fatalf("epoch defaults = %+v", cfg)
	}
	if cfg.shards != 1 || cfg.batchMax != 32 || cfg.queueDepth != 256 {
		t.Fatalf("shard defaults = %+v", cfg)
	}
	if cfg.probeEvery != 0 || cfg.probeCount != 4 || cfg.faultInject != "" || cfg.faultSeed != 1 {
		t.Fatalf("fault defaults = %+v", cfg)
	}
	if !cfg.metrics || cfg.traceSample != 0 {
		t.Fatalf("observability defaults = %+v", cfg)
	}
	if cfg.dataDir != "" || cfg.snapshotEvery != time.Minute || cfg.fsyncBatch != 8 {
		t.Fatalf("durability defaults = %+v", cfg)
	}
	if cfg.nodeID != "" || cfg.peers != "" || cfg.clusterPoll != 500*time.Millisecond ||
		cfg.forwardTimeout != 5*time.Second || cfg.forwardRetries != 2 || cfg.maxHops != 2 {
		t.Fatalf("cluster defaults = %+v", cfg)
	}
}

func TestParseFlagsOverrides(t *testing.T) {
	cfg, err := parseFlags([]string{
		"-addr", ":9000", "-n", "64",
		"-epoch", "1s", "-epoch-threshold", "8", "-cache", "16",
		"-shards", "4", "-batch-max", "16", "-queue-depth", "64",
		"-probe-every", "2", "-probe-count", "6", "-fault-inject", "dead:0:1", "-fault-seed", "99",
		"-metrics=false", "-trace-sample", "7",
		"-data-dir", "/tmp/brsmnd-x", "-snapshot-every", "30s", "-fsync-batch", "1",
		"-node-id", "a", "-peers", "a=http://127.0.0.1:1,b=http://127.0.0.1:2",
		"-cluster-poll", "100ms", "-forward-timeout", "2s", "-forward-retries", "1", "-max-hops", "3",
	})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.addr != ":9000" || cfg.n != 64 ||
		cfg.epochPeriod != time.Second || cfg.epochThreshold != 8 || cfg.cacheSize != 16 {
		t.Fatalf("overrides = %+v", cfg)
	}
	if cfg.shards != 4 || cfg.batchMax != 16 || cfg.queueDepth != 64 {
		t.Fatalf("shard overrides = %+v", cfg)
	}
	if cfg.probeEvery != 2 || cfg.probeCount != 6 || cfg.faultInject != "dead:0:1" || cfg.faultSeed != 99 {
		t.Fatalf("fault overrides = %+v", cfg)
	}
	if cfg.metrics || cfg.traceSample != 7 {
		t.Fatalf("observability overrides = %+v", cfg)
	}
	if cfg.dataDir != "/tmp/brsmnd-x" || cfg.snapshotEvery != 30*time.Second || cfg.fsyncBatch != 1 {
		t.Fatalf("durability overrides = %+v", cfg)
	}
	if cfg.nodeID != "a" || cfg.peers != "a=http://127.0.0.1:1,b=http://127.0.0.1:2" ||
		cfg.clusterPoll != 100*time.Millisecond || cfg.forwardTimeout != 2*time.Second ||
		cfg.forwardRetries != 1 || cfg.maxHops != 3 {
		t.Fatalf("cluster overrides = %+v", cfg)
	}
}

func TestParseFlagsErrors(t *testing.T) {
	if _, err := parseFlags([]string{"-nope"}); err == nil {
		t.Fatal("unknown flag accepted")
	}
	if _, err := parseFlags([]string{"stray"}); err == nil {
		t.Fatal("stray positional argument accepted")
	}
	if _, err := parseFlags([]string{"-shards", "0"}); err == nil {
		t.Fatal("-shards 0 accepted")
	}
	// The group registry is one map per serving shard; the old lock
	// striping flag is gone.
	if _, err := parseFlags([]string{"-registry-shards", "8"}); err == nil {
		t.Fatal("-registry-shards accepted")
	}
	// A route and an epoch run on one goroutine; the planner fork
	// width flag is gone.
	if _, err := parseFlags([]string{"-workers", "2"}); err == nil {
		t.Fatal("-workers accepted")
	}
	// Cluster flags come as a pair and must be self-consistent.
	if _, err := parseFlags([]string{"-node-id", "a"}); err == nil {
		t.Fatal("-node-id without -peers accepted")
	}
	if _, err := parseFlags([]string{"-peers", "a=http://127.0.0.1:1"}); err == nil {
		t.Fatal("-peers without -node-id accepted")
	}
	if _, err := parseFlags([]string{"-node-id", "c", "-peers", "a=http://127.0.0.1:1,b=http://127.0.0.1:2"}); err == nil {
		t.Fatal("-node-id missing from -peers accepted")
	}
	if _, err := parseFlags([]string{"-node-id", "a", "-peers", "a=127.0.0.1:1"}); err == nil {
		t.Fatal("-peers URL without scheme accepted")
	}
	if _, err := parseFlags([]string{"-node-id", "a", "-peers", "a=http://x,a=http://y"}); err == nil {
		t.Fatal("duplicate -peers node ID accepted")
	}
	// An invalid network size surfaces at handler construction.
	cfg, err := parseFlags([]string{"-n", "12"})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := newHandler(cfg); err == nil {
		t.Fatal("n = 12 accepted by newHandler")
	}
	// A malformed or out-of-range fault spec also surfaces there.
	cfg, err = parseFlags([]string{"-n", "8", "-fault-inject", "stuck:3"})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := newHandler(cfg); err == nil {
		t.Fatal("malformed -fault-inject accepted by newHandler")
	}
	cfg, err = parseFlags([]string{"-n", "8", "-fault-inject", "dead:999:0"})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := newHandler(cfg); err == nil {
		t.Fatal("out-of-range -fault-inject accepted by newHandler")
	}
}

// envelope is the /v1 response shape the daemon tests unwrap.
type envelope struct {
	Data  json.RawMessage `json:"data"`
	Error *struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// unwrap decodes resp's envelope data into out (when non-nil) and
// returns the status code.
func unwrap(t *testing.T, resp *http.Response, out any) int {
	t.Helper()
	defer resp.Body.Close()
	var env envelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("%s: not an envelope: %v", resp.Request.URL.Path, err)
	}
	if out != nil && len(env.Data) > 0 && string(env.Data) != "null" {
		if err := json.Unmarshal(env.Data, out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// TestHandlerRoundTrip drives the real daemon handler over httptest:
// stateless /v1/route plus the stateful group lifecycle, with periodic
// probing armed so the epoch also exercises the fault monitor hook.
func TestHandlerRoundTrip(t *testing.T) {
	cfg, err := parseFlags([]string{"-n", "8", "-epoch", "0", "-epoch-threshold", "0", "-probe-every", "1"})
	if err != nil {
		t.Fatal(err)
	}
	handler, set, err := newHandler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	ts := httptest.NewServer(handler)
	defer ts.Close()

	// Stateless route: the paper's Fig. 2 example.
	resp, err := http.Post(ts.URL+"/v1/route", "application/json",
		strings.NewReader(`{"n":8,"dests":[[0,1],null,[3,4,7],[2],null,null,null,[5,6]]}`))
	if err != nil {
		t.Fatal(err)
	}
	var route struct {
		Deliveries []int `json:"deliveries"`
	}
	if code := unwrap(t, resp, &route); code != http.StatusOK || route.Deliveries[7] != 2 {
		t.Fatalf("route = %d, deliveries %v", code, route.Deliveries)
	}

	// Stateful: create a group, join, run an epoch, check health.
	resp, err = http.Post(ts.URL+"/v1/groups", "application/json",
		strings.NewReader(`{"id":"g","source":1,"members":[2,5]}`))
	if err != nil {
		t.Fatal(err)
	}
	if code := unwrap(t, resp, nil); code != http.StatusCreated {
		t.Fatalf("create = %d", code)
	}
	resp, err = http.Post(ts.URL+"/v1/groups/g/join", "application/json", strings.NewReader(`{"dest":7}`))
	if err != nil {
		t.Fatal(err)
	}
	if code := unwrap(t, resp, nil); code != http.StatusOK {
		t.Fatalf("join = %d", code)
	}
	resp, err = http.Post(ts.URL+"/v1/epoch", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Epoch  int64 `json:"epoch"`
		Groups int   `json:"groups"`
	}
	if code := unwrap(t, resp, &rep); code != http.StatusOK || rep.Epoch != 1 || rep.Groups != 1 {
		t.Fatalf("epoch = %d, report = %+v", code, rep)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h struct {
		Status string `json:"status"`
		Groups int    `json:"groups"`
		Epoch  int64  `json:"epoch"`
		Faults *struct {
			ProbeRounds uint64 `json:"probeRounds"`
			Detected    bool   `json:"detected"`
		} `json:"faults"`
		Shards *struct {
			Shards int `json:"shards"`
			Live   int `json:"live"`
		} `json:"shards"`
	}
	if code := unwrap(t, resp, &h); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
	if h.Status != "ok" || h.Groups != 1 || h.Epoch != 1 {
		t.Fatalf("healthz = %+v", h)
	}
	// -probe-every 1 means the epoch above ran one probe round on the
	// clean fabric.
	if h.Faults == nil || h.Faults.ProbeRounds != 1 || h.Faults.Detected {
		t.Fatalf("healthz faults = %+v", h.Faults)
	}
	if h.Shards == nil || h.Shards.Shards != 1 || h.Shards.Live != 1 {
		t.Fatalf("healthz shards = %+v", h.Shards)
	}

	resp, err = http.Post(ts.URL+"/v1/groups/g/leave", "application/json", strings.NewReader(`{"dest":7}`))
	if err != nil {
		t.Fatal(err)
	}
	if code := unwrap(t, resp, nil); code != http.StatusOK {
		t.Fatalf("leave = %d", code)
	}
}

// TestHandlerSharded boots a 3-shard daemon handler and checks groups
// land across shards and the shard surface reports them.
func TestHandlerSharded(t *testing.T) {
	cfg, err := parseFlags([]string{"-n", "16", "-shards", "3", "-epoch", "0", "-epoch-threshold", "0"})
	if err != nil {
		t.Fatal(err)
	}
	handler, set, err := newHandler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	ts := httptest.NewServer(handler)
	defer ts.Close()

	for i := 0; i < 12; i++ {
		resp, err := http.Post(ts.URL+"/v1/groups", "application/json",
			strings.NewReader(`{"source":`+string(rune('0'+i%8))+`,"members":[8]}`))
		if err != nil {
			t.Fatal(err)
		}
		if code := unwrap(t, resp, nil); code != http.StatusCreated {
			t.Fatalf("create %d = %d", i, code)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/shards")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Shards   int `json:"shards"`
		Live     int `json:"live"`
		Groups   int `json:"groups"`
		PerShard []struct {
			Groups   int    `json:"groups"`
			Admitted uint64 `json:"admitted"`
		} `json:"perShard"`
	}
	if code := unwrap(t, resp, &stats); code != http.StatusOK {
		t.Fatalf("shards = %d", code)
	}
	if stats.Shards != 3 || stats.Live != 3 || stats.Groups != 12 {
		t.Fatalf("shard stats = %+v", stats)
	}
	var admitted uint64
	for _, ps := range stats.PerShard {
		admitted += ps.Admitted
	}
	if admitted != 12 {
		t.Fatalf("admitted across shards = %d, want 12", admitted)
	}
}

// TestRunGracefulShutdown boots the real server on an ephemeral port,
// serves a request, then cancels the context and expects a clean drain.
func TestRunGracefulShutdown(t *testing.T) {
	// Find a free port; the tiny window between Close and ListenAndServe
	// is acceptable in a test.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	cfg, err := parseFlags([]string{"-addr", addr, "-n", "8", "-epoch", "5ms"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var out strings.Builder
	done := make(chan error, 1)
	go func() { done <- run(ctx, &out, cfg) }()

	// Wait for the server to come up, then hit it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never came up: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not drain after cancel")
	}
	if !strings.Contains(out.String(), "draining") || !strings.Contains(out.String(), "bye") {
		t.Fatalf("shutdown log missing: %q", out.String())
	}
}
