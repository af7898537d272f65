package api

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"brsmn/internal/faultd"
	"brsmn/internal/groupd"
	"brsmn/internal/shard"
)

// TestEnvelopeBothKeysAlways is the envelope conformance check: every
// JSON reply — success or failure, any handler family — carries both
// the "data" and "error" keys, and exactly one of them is null.
func TestEnvelopeBothKeysAlways(t *testing.T) {
	ts := newTestServer(t)

	type probe struct {
		method, path string
		body         string
	}
	probes := []probe{
		{"POST", "/v1/route", `{"n":8,"dests":[[1],null,null,null,null,null,null,null]}`}, // 200
		{"POST", "/v1/route", `{"n":7}`},                              // 400
		{"POST", "/v1/route", `{"n":4,"dests":[[0],[0]]}`},            // 422
		{"GET", "/v1/cost?n=64", ""},                                  // 200
		{"GET", "/v1/cost?n=63", ""},                                  // 400
		{"POST", "/v1/groups", `{"id":"e","source":0,"members":[1]}`}, // 201
		{"POST", "/v1/groups", `{"id":"e","source":0,"members":[1]}`}, // 409
		{"GET", "/v1/groups/nope", ""},                                // 404
		{"GET", "/v1/healthz", ""},                                    // 200
		{"GET", "/v1/shards", ""},                                     // 200
		{"PUT", "/v1/route", ""},                                      // 405
		{"GET", "/v1/definitely/not/there", ""},                       // 404 catch-all
	}
	for _, p := range probes {
		var body io.Reader
		if p.body != "" {
			body = strings.NewReader(p.body)
		}
		req, err := http.NewRequest(p.method, ts.URL+p.path, body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s %s: content-type %q, want application/json", p.method, p.path, ct)
			continue
		}
		var keys map[string]json.RawMessage
		if err := json.Unmarshal(raw, &keys); err != nil {
			t.Errorf("%s %s: body not a JSON object: %v", p.method, p.path, err)
			continue
		}
		data, hasData := keys["data"]
		errv, hasErr := keys["error"]
		if !hasData || !hasErr {
			t.Errorf("%s %s: envelope missing keys: %s", p.method, p.path, raw)
			continue
		}
		dataNull := string(data) == "null"
		errNull := string(errv) == "null"
		if resp.StatusCode < 400 && (dataNull || !errNull) {
			t.Errorf("%s %s (%d): success envelope wrong: %s", p.method, p.path, resp.StatusCode, raw)
		}
		if resp.StatusCode >= 400 && (!dataNull || errNull) {
			t.Errorf("%s %s (%d): error envelope wrong: %s", p.method, p.path, resp.StatusCode, raw)
		}
	}
}

// TestUniform400Shape asserts structurally invalid input produces the
// same field-level error shape no matter which handler family rejects
// it.
func TestUniform400Shape(t *testing.T) {
	ts, _ := newFaultServer(t)

	cases := []struct {
		method, path, body, field string
	}{
		{"POST", "/v1/route", `{"n":7,"dests":[[1]]}`, "n"},
		{"POST", "/v1/pipeline", `{"n":8,"gap":-1,"batch":[[[1]]]}`, "gap"},
		{"POST", "/v1/groups", `{"id":"g","source":-1}`, "source"},
		{"POST", "/v1/groups/x/join", `{"dest":-4}`, "dest"},
		{"POST", "/v1/faults", `{}`, "faults"},
		{"GET", "/v1/faults?shard=x", "", "shard"},
		{"GET", "/v1/groups?limit=-1", "", "limit"},
		{"GET", "/v1/cost?n=banana", "", "n"},
	}
	for _, tc := range cases {
		var body io.Reader
		if tc.body != "" {
			body = strings.NewReader(tc.body)
		}
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		e := checkJSONError(t, resp, http.StatusBadRequest)
		if e.Code != CodeBadRequest {
			t.Errorf("%s %s: code %q, want %q", tc.method, tc.path, e.Code, CodeBadRequest)
		}
		found := false
		for _, f := range e.Fields {
			if f.Field == tc.field && f.Reason != "" {
				found = true
			}
		}
		if !found {
			t.Errorf("%s %s: fields %+v, want one naming %q", tc.method, tc.path, e.Fields, tc.field)
		}
	}
}

// newShardServer spins up a server fronting a 2-shard Set with one
// fault monitor per shard.
func newShardServer(t *testing.T, shards int) (*httptest.Server, *shard.Set) {
	t.Helper()
	monitors := make([]*faultd.Monitor, shards)
	for i := range monitors {
		fm, err := faultd.NewMonitor(faultd.Config{N: 16, ProbeCount: 2},
			faultd.NewInjector(int64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		monitors[i] = fm
	}
	set := newTestSet(t, func(c *shard.Config) {
		c.Shards = shards
		c.NewPolicy = func(i int) groupd.FaultPolicy { return monitors[i] }
	})
	ts := httptest.NewServer(NewServer(set, monitors))
	t.Cleanup(ts.Close)
	return ts, set
}

// TestShardedServer drives the group lifecycle and the shard
// introspection/rebalance endpoints against a 2-shard Set.
func TestShardedServer(t *testing.T) {
	ts, _ := newShardServer(t, 2)

	for i, id := range []string{"s-a", "s-b", "s-c", "s-d", "s-e", "s-f"} {
		if code := doJSON(t, "POST", ts.URL+"/v1/groups",
			CreateGroupRequest{ID: id, Source: i, Members: []int{8 + i}}, nil); code != http.StatusCreated {
			t.Fatalf("create %s = %d", id, code)
		}
	}

	var stats shard.SetStats
	if code := doJSON(t, "GET", ts.URL+"/v1/shards", nil, &stats); code != http.StatusOK {
		t.Fatalf("shards = %d", code)
	}
	if stats.Shards != 2 || stats.Live != 2 || stats.Groups != 6 || len(stats.PerShard) != 2 {
		t.Fatalf("shard stats = %+v", stats)
	}

	// Healthz reports the sharded layer.
	var h HealthResponse
	if code := doJSON(t, "GET", ts.URL+"/v1/healthz", nil, &h); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
	if h.Shards == nil || h.Shards.Shards != 2 || h.Groups != 6 {
		t.Fatalf("healthz on sharded server = %+v", h)
	}

	// Quarantine shard 1: its groups migrate, the set stays whole.
	if code := doJSON(t, "POST", ts.URL+"/v1/shards/1/quarantine", nil, &stats); code != http.StatusOK {
		t.Fatalf("quarantine = %d", code)
	}
	if stats.Live != 1 || stats.Groups != 6 {
		t.Fatalf("post-quarantine stats = %+v", stats)
	}
	var got groupd.GroupInfo
	if code := doJSON(t, "GET", ts.URL+"/v1/groups/s-c", nil, &got); code != http.StatusOK {
		t.Fatalf("get after quarantine = %d", code)
	}

	// State conflicts: re-quarantining, and pulling the last live shard.
	if code := doJSON(t, "POST", ts.URL+"/v1/shards/1/quarantine", nil, nil); code != http.StatusConflict {
		t.Fatalf("double quarantine = %d, want 409", code)
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/shards/0/quarantine", nil, nil); code != http.StatusConflict {
		t.Fatalf("quarantine last live = %d, want 409", code)
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/shards/9/quarantine", nil, nil); code != http.StatusNotFound {
		t.Fatalf("quarantine unknown = %d, want 404", code)
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/shards/zebra/quarantine", nil, nil); code != http.StatusBadRequest {
		t.Fatalf("quarantine junk id = %d, want 400", code)
	}

	if code := doJSON(t, "POST", ts.URL+"/v1/shards/1/reinstate", nil, &stats); code != http.StatusOK {
		t.Fatalf("reinstate = %d", code)
	}
	if stats.Live != 2 || stats.Groups != 6 {
		t.Fatalf("post-reinstate stats = %+v", stats)
	}

	// Per-shard fault selectors: both fabrics probe, a shard past the
	// end does not exist.
	for _, q := range []string{"?shard=0", "?shard=1"} {
		var probe faultd.ProbeReport
		if code := doJSON(t, "POST", ts.URL+"/v1/probe"+q, nil, &probe); code != http.StatusOK {
			t.Fatalf("probe%s = %d", q, code)
		}
		if probe.Probes != 2 || probe.Detected {
			t.Fatalf("probe%s = %+v", q, probe)
		}
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/faults?shard=2", nil, nil); code != http.StatusNotFound {
		t.Fatalf("faults shard=2 = %d, want 404", code)
	}

	// Epochs run across all live shards.
	var rep groupd.EpochReport
	if code := doJSON(t, "POST", ts.URL+"/v1/epoch", nil, &rep); code != http.StatusOK {
		t.Fatalf("epoch = %d", code)
	}
	if rep.Groups != 6 {
		t.Fatalf("sharded epoch report = %+v", rep)
	}
}

// TestHealthzSeesEveryShard arms a stuck-at fault on shard 1 only and
// checks healthz reports the detection and counts both shards' probes.
func TestHealthzSeesEveryShard(t *testing.T) {
	ts, _ := newShardServer(t, 2)
	if code := doJSON(t, "POST", ts.URL+"/v1/probe?shard=0", nil, nil); code != http.StatusOK {
		t.Fatalf("probe shard 0 = %d", code)
	}
	detected := false
	for _, spec := range []string{"stuck:3:2:parallel", "stuck:3:2:cross"} {
		if code := doJSON(t, "DELETE", ts.URL+"/v1/faults?shard=1", nil, nil); code != http.StatusOK {
			t.Fatalf("clear shard 1 = %d", code)
		}
		if code := doJSON(t, "POST", ts.URL+"/v1/faults?shard=1", InjectFaultsRequest{Spec: spec}, nil); code != http.StatusOK {
			t.Fatalf("inject %q on shard 1 = %d", spec, code)
		}
		var probe faultd.ProbeReport
		if code := doJSON(t, "POST", ts.URL+"/v1/probe?shard=1", nil, &probe); code != http.StatusOK {
			t.Fatalf("probe shard 1 = %d", code)
		}
		if probe.Detected {
			detected = true
			break
		}
	}
	if !detected {
		t.Fatal("no stuck value of (col 3, switch 2) was detected on shard 1")
	}

	var h HealthResponse
	if code := doJSON(t, "GET", ts.URL+"/v1/healthz", nil, &h); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
	var shard0, shard1 faultd.Report
	doJSON(t, "GET", ts.URL+"/v1/faults/report?shard=0", nil, &shard0)
	doJSON(t, "GET", ts.URL+"/v1/faults/report?shard=1", nil, &shard1)
	if shard0.Stats.Detected || !shard1.Stats.Detected {
		t.Fatalf("per-shard detection = %v/%v, want false/true", shard0.Stats.Detected, shard1.Stats.Detected)
	}
	if h.Faults == nil || !h.Faults.Detected {
		t.Fatalf("healthz faults = %+v, want detected", h.Faults)
	}
	if want := shard0.Stats.ProbeRounds + shard1.Stats.ProbeRounds; h.Faults.ProbeRounds != want {
		t.Fatalf("healthz probe rounds = %d, want the sum %d", h.Faults.ProbeRounds, want)
	}
	if h.Faults.Candidates != shard1.Stats.Candidates {
		t.Fatalf("healthz candidates = %d, want shard 1's %d", h.Faults.Candidates, shard1.Stats.Candidates)
	}
}
