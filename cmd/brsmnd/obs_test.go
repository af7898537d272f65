package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestHandlerMetricsAndTrace drives the default (-metrics on) handler
// and checks the scrape and trace surfaces end to end. All planner and
// faultd series carry the shard label.
func TestHandlerMetricsAndTrace(t *testing.T) {
	cfg, err := parseFlags([]string{"-n", "8", "-epoch", "0", "-epoch-threshold", "0", "-trace-sample", "1", "-probe-every", "1"})
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

	post := func(path, body string, want int) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("POST %s = %d, want %d", path, resp.StatusCode, want)
		}
	}
	post("/v1/groups", `{"id":"g","source":1,"members":[2,5]}`, http.StatusCreated)
	post("/v1/epoch", "", http.StatusOK)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d", resp.StatusCode)
	}
	text := string(raw)
	for _, series := range []string{
		"brsmn_epoch_duration_seconds",
		"brsmn_plan_cache_ops_total",
		`brsmn_plan_patches_total{result="full",shard="0"} 1`,
		`brsmn_faultd_probe_rounds_total{shard="0"} 1`,
		"brsmn_goroutines",
		"brsmn_http_requests_total",
		`brsmn_shard_admitted_total{shard="0"} 1`,
		`brsmn_shard_queue_capacity{shard="0"} 256`,
		"brsmn_shards 1",
		"brsmn_shards_live 1",
	} {
		if !strings.Contains(text, series) {
			t.Errorf("/metrics missing %q", series)
		}
	}

	resp, err = http.Get(ts.URL + "/v1/trace/g")
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Data *struct {
			Group string `json:"group"`
			Trace *struct {
				N       int   `json:"n"`
				TotalNs int64 `json:"totalNs"`
			} `json:"trace"`
		} `json:"data"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || env.Data == nil || env.Data.Group != "g" ||
		env.Data.Trace == nil || env.Data.Trace.N != 8 {
		t.Fatalf("/v1/trace/g = %d, %+v", resp.StatusCode, env.Data)
	}
}

// TestHandlerMetricsDisabled checks -metrics=false removes the scrape
// surface (503, the disabled convention) without breaking serving.
func TestHandlerMetricsDisabled(t *testing.T) {
	cfg, err := parseFlags([]string{"-n", "8", "-epoch", "0", "-metrics=false"})
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
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/metrics with -metrics=false = %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d", resp.StatusCode)
	}
}

// daemonGoroutines scans all goroutine stacks for daemon-owned work:
// the epoch loops, shard admission workers, fault probing, the cluster
// membership loop and its rebalance sweeps, the run loop itself, or the
// serving listener. After a clean shutdown none may remain.
func daemonGoroutines() []string {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	var leaked []string
	for _, s := range strings.Split(string(buf[:n]), "\n\n") {
		if strings.Contains(s, "brsmn/internal/groupd.(*Manager).loop") ||
			strings.Contains(s, "brsmn/internal/shard.(*Shard).worker") ||
			strings.Contains(s, "brsmn/internal/shard.(*Set).snapshotLoop") ||
			strings.Contains(s, "brsmn/internal/faultd.(*Monitor).RunProbes") ||
			strings.Contains(s, "brsmn/internal/cluster.(*Node).loop") ||
			strings.Contains(s, "brsmn/internal/cluster.(*Node).sweep") ||
			strings.Contains(s, "brsmn/internal/cluster.(*Node).pollRound") ||
			strings.Contains(s, "brsmn/cmd/brsmnd.run(") ||
			strings.Contains(s, "net/http.(*Server).Serve") {
			leaked = append(leaked, s)
		}
	}
	return leaked
}

// TestRunShutdownUnderLoad cancels a sharded daemon while client
// goroutines hammer epoch and membership endpoints, then asserts no
// daemon goroutine outlives run — the regression for the
// shutdown-ordering bug where the epoch ticker and fault prober kept
// replanning against a closing server.
func TestRunShutdownUnderLoad(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	// A fast epoch timer plus periodic probing keeps background work
	// in flight at cancel time, on two shards, with a durable data dir
	// and a fast snapshot loop so WAL appends and snapshot writes race
	// the drain too.
	dir := t.TempDir()
	cfg, err := parseFlags([]string{"-addr", addr, "-n", "16", "-shards", "2", "-epoch", "1ms", "-probe-every", "1", "-trace-sample", "1",
		"-data-dir", dir, "-snapshot-every", "10ms", "-fsync-batch", "1"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var out strings.Builder
	done := make(chan error, 1)
	go func() { done <- run(ctx, &out, cfg) }()

	base := "http://" + addr
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never came up: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := http.Post(base+"/v1/groups", "application/json",
		strings.NewReader(`{"id":"g","source":1,"members":[2,5]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	stop := make(chan struct{})
	var clients sync.WaitGroup
	for i := 0; i < 4; i++ {
		clients.Add(1)
		go func() {
			defer clients.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Errors are expected once the listener closes.
				if resp, err := http.Post(base+"/v1/epoch", "application/json", nil); err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
				if resp, err := http.Get(base + "/metrics"); err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}

	time.Sleep(50 * time.Millisecond) // let load and epochs overlap
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not drain after cancel under load")
	}
	close(stop)
	clients.Wait()

	// Daemon goroutines may need a beat to unwind after run returns.
	deadline = time.Now().Add(5 * time.Second)
	for {
		leaked := daemonGoroutines()
		if len(leaked) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d daemon goroutines survived shutdown:\n%s", len(leaked), strings.Join(leaked, "\n\n"))
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The WAL flushed and the final snapshot landed after the epoch
	// ticker and prober stopped, before run returned.
	if !strings.Contains(out.String(), "state snapshotted to disk") {
		t.Fatalf("shutdown log missing snapshot line: %q", out.String())
	}
	for i := 0; i < 2; i++ {
		snap := filepath.Join(dir, fmt.Sprintf("shard-%d", i), "snapshot.brss")
		if _, err := os.Stat(snap); err != nil {
			t.Errorf("final snapshot for shard %d missing: %v", i, err)
		}
	}
}
