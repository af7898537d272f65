package api

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"brsmn/internal/bsn"
	"brsmn/internal/fabric"
	"brsmn/internal/groupd"
	"brsmn/internal/plancodec"
	"brsmn/internal/shard"
	"brsmn/internal/workload"
)

// newTestSet returns a one-shard Set over a 16-port fabric in
// manual-epoch mode, closed when the test ends. mutate, when non-nil,
// adjusts the config first: shard count, store, fault policy, metrics.
func newTestSet(t *testing.T, mutate func(*shard.Config)) *shard.Set {
	t.Helper()
	cfg := shard.Config{Group: groupd.Config{N: 16}}
	if mutate != nil {
		mutate(&cfg)
	}
	set, err := shard.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { set.Close() })
	return set
}

// newTestServer serves a one-shard Set without fault monitors.
func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(NewServer(newTestSet(t, nil), nil))
	t.Cleanup(ts.Close)
	return ts
}

// rawEnvelope decodes any /v1 reply without committing to a data type.
type rawEnvelope struct {
	Data  json.RawMessage `json:"data"`
	Error *ErrorBody      `json:"error"`
}

// readEnvelope decodes resp's envelope, unmarshals data into out when
// non-nil, and returns the error half (nil on success replies).
func readEnvelope(t *testing.T, resp *http.Response, out any) *ErrorBody {
	t.Helper()
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var env rawEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("%s: body is not an envelope: %v\n%s", resp.Request.URL.Path, err, raw)
	}
	if out != nil && len(env.Data) > 0 && string(env.Data) != "null" {
		if err := json.Unmarshal(env.Data, out); err != nil {
			t.Fatalf("%s: data does not decode: %v", resp.Request.URL.Path, err)
		}
	}
	return env.Error
}

// doJSON performs method/url with an optional JSON body and decodes the
// envelope's data into out. It returns the status code.
func doJSON(t *testing.T, method, url string, body any, out any) int {
	t.Helper()
	var req *http.Request
	var err error
	if body != nil {
		raw, merr := json.Marshal(body)
		if merr != nil {
			t.Fatal(merr)
		}
		req, err = http.NewRequest(method, url, bytes.NewReader(raw))
	} else {
		req, err = http.NewRequest(method, url, nil)
	}
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	readEnvelope(t, resp, out)
	return resp.StatusCode
}

func postJSON(t *testing.T, url string, body any, out any) int {
	t.Helper()
	return doJSON(t, "POST", url, body, out)
}

// TestRouteEndpoint routes the Fig. 2 example over HTTP.
func TestRouteEndpoint(t *testing.T) {
	ts := newTestServer(t)
	var out RouteResponse
	code := postJSON(t, ts.URL+"/v1/route", RouteRequest{
		N:     8,
		Dests: [][]int{{0, 1}, nil, {3, 4, 7}, {2}, nil, nil, nil, {5, 6}},
	}, &out)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	want := []int{0, 0, 3, 2, 2, 7, 7, 2}
	for i := range want {
		if out.Deliveries[i] != want[i] {
			t.Errorf("output %d: %d, want %d", i, out.Deliveries[i], want[i])
		}
	}
	if out.Splits != 4 { // fanout 8 from 4 sources -> 4 splits
		t.Errorf("splits = %d, want 4", out.Splits)
	}
}

// TestRouteEndpointErrors covers the failure statuses: structural junk
// is a uniform 400, semantically unroutable input is 422.
func TestRouteEndpointErrors(t *testing.T) {
	ts := newTestServer(t)
	if code := postJSON(t, ts.URL+"/v1/route", RouteRequest{N: 7, Dests: [][]int{{0}}}, nil); code != http.StatusBadRequest {
		t.Errorf("bad n: status %d, want 400", code)
	}
	if code := postJSON(t, ts.URL+"/v1/route", RouteRequest{N: 4, Dests: [][]int{{0}, {0}}}, nil); code != http.StatusUnprocessableEntity {
		t.Errorf("overlap: status %d, want 422", code)
	}
	resp, err := http.Post(ts.URL+"/v1/route", "application/json", bytes.NewReader([]byte("{nonsense")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON: status %d", resp.StatusCode)
	}
}

// TestScheduleEndpoint schedules a conflicted batch over HTTP.
func TestScheduleEndpoint(t *testing.T) {
	ts := newTestServer(t)
	var out ScheduleResponse
	code := postJSON(t, ts.URL+"/v1/schedule", map[string]any{
		"n": 8,
		"requests": []map[string]any{
			{"source": 0, "dests": []int{1, 2}},
			{"source": 3, "dests": []int{2, 4}},
		},
	}, &out)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(out.Rounds) != 2 {
		t.Fatalf("rounds = %d, want 2 (output 2 conflicts)", len(out.Rounds))
	}
	r0 := out.RoundOf[0]
	if out.Rounds[r0][1] != 0 || out.Rounds[r0][2] != 0 {
		t.Errorf("request 0 not delivered in its round: %v", out.Rounds[r0])
	}
	r1 := out.RoundOf[1]
	if out.Rounds[r1][2] != 3 || out.Rounds[r1][4] != 3 {
		t.Errorf("request 1 not delivered in its round: %v", out.Rounds[r1])
	}
	if code := postJSON(t, ts.URL+"/v1/schedule", map[string]any{"n": 5}, nil); code != http.StatusBadRequest {
		t.Errorf("bad n: status %d, want 400", code)
	}
}

// TestCostEndpoint fetches Table 2 rows.
func TestCostEndpoint(t *testing.T) {
	ts := newTestServer(t)
	var out CostResponse
	if code := doJSON(t, "GET", ts.URL+"/v1/cost?n=64", nil, &out); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if out.N != 64 || len(out.Rows) != 4 {
		t.Fatalf("cost response %+v", out)
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/cost?n=63", nil, nil); code != http.StatusBadRequest {
		t.Errorf("bad n: status %d, want 400", code)
	}
}

// TestSequenceEndpoint fetches the Fig. 9 golden sequence.
func TestSequenceEndpoint(t *testing.T) {
	ts := newTestServer(t)
	var out SequenceResponse
	if code := doJSON(t, "GET", ts.URL+"/v1/sequence?n=8&dests=3,4,7", nil, &out); code != http.StatusOK {
		t.Fatalf("sequence status %d", code)
	}
	if out.Sequence != "α1αε011" {
		t.Errorf("sequence = %q", out.Sequence)
	}
	for _, bad := range []string{"/v1/sequence?n=8&dests=9", "/v1/sequence?n=x", "/v1/sequence?n=8&dests=a"} {
		if code := doJSON(t, "GET", ts.URL+bad, nil, nil); code == http.StatusOK {
			t.Errorf("%s: unexpectedly OK", bad)
		}
	}
}

// TestPlanEndpoint plans the Fig. 2 assignment on every fabric. Each
// program must decode, each response must deliver the assignment's
// output owners, and the single-injection programs (brsmn, feedback)
// must replay locally to those deliveries. Omitting backend plans on
// the full BRSMN, exactly as naming it does.
func TestPlanEndpoint(t *testing.T) {
	ts := newTestServer(t)
	a := workload.PaperFig2()
	cells, err := bsn.CellsForAssignment(a)
	if err != nil {
		t.Fatal(err)
	}
	owner := a.OutputOwner()
	cases := []struct {
		backend, want string
		passes        int // 0: any positive count
		replay        bool
	}{
		{"", "brsmn", 1, true},
		{"brsmn", "brsmn", 1, true},
		{"feedback", "feedback", 2*3 - 1, true},
		{"permnet", "permnet", 0, false},
	}
	plans := map[string]string{}
	for _, tc := range cases {
		var out PlanResponse
		code := postJSON(t, ts.URL+"/v1/plan", PlanRequest{
			RouteRequest: RouteRequest{N: 8, Dests: a.Dests},
			Backend:      tc.backend,
		}, &out)
		if code != http.StatusOK {
			t.Fatalf("backend %q: status %d", tc.backend, code)
		}
		if out.Backend != tc.want || out.Cost == nil || out.Cost.Switches <= 0 {
			t.Errorf("backend %q: answered %q with cost %+v", tc.backend, out.Backend, out.Cost)
		}
		if (tc.passes > 0 && out.Passes != tc.passes) || out.Passes < 1 {
			t.Errorf("backend %q: passes %d, want %d", tc.backend, out.Passes, tc.passes)
		}
		blob, err := base64.StdEncoding.DecodeString(out.Plan)
		if err != nil {
			t.Fatal(err)
		}
		n, cols, err := plancodec.Decode(blob)
		if err != nil {
			t.Fatalf("backend %q: %v", tc.backend, err)
		}
		if n != 8 || len(cols) != out.Columns {
			t.Fatalf("backend %q: decoded n=%d cols=%d, response says %d", tc.backend, n, len(cols), out.Columns)
		}
		for p, want := range owner {
			if out.Deliveries[p] != want {
				t.Fatalf("backend %q: output %d delivers %d, owner is %d", tc.backend, p, out.Deliveries[p], want)
			}
		}
		plans[tc.backend] = out.Plan
		if !tc.replay {
			continue
		}
		final, err := fabric.Run(cols, cells)
		if err != nil {
			t.Fatalf("backend %q: %v", tc.backend, err)
		}
		for p, c := range final {
			want := out.Deliveries[p]
			got := -1
			if !c.IsIdle() {
				got = c.Source
			}
			if got != want {
				t.Fatalf("backend %q: replay output %d = %d, response says %d", tc.backend, p, got, want)
			}
		}
	}
	if plans[""] != plans["brsmn"] {
		t.Error("omitted backend planned differently from brsmn")
	}
	if code := postJSON(t, ts.URL+"/v1/plan", RouteRequest{N: 5}, nil); code != http.StatusBadRequest {
		t.Errorf("bad n: status %d, want 400", code)
	}
	resp, err := http.Post(ts.URL+"/v1/plan", "application/json",
		strings.NewReader(`{"n":8,"dests":[[1]],"backend":"quantum"}`))
	if err != nil {
		t.Fatal(err)
	}
	e := readEnvelope(t, resp, nil)
	if resp.StatusCode != http.StatusBadRequest || e == nil || len(e.Fields) != 1 || e.Fields[0].Field != "backend" {
		t.Errorf("unknown backend: status %d, error %+v, want 400 naming backend", resp.StatusCode, e)
	}
}

// TestPipelineEndpoint streams a small batch over HTTP.
func TestPipelineEndpoint(t *testing.T) {
	ts := newTestServer(t)
	var out PipelineResponse
	code := postJSON(t, ts.URL+"/v1/pipeline", PipelineRequest{
		N:   8,
		Gap: 1,
		Batch: [][][]int{
			{{0, 1}, nil, {3, 4, 7}, {2}, nil, nil, nil, {5, 6}},
			{{7}, {6}, nil, nil, nil, nil, nil, nil},
		},
	}, &out)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if out.Speedup <= 1 || len(out.Deliveries) != 2 {
		t.Fatalf("response %+v", out)
	}
	if out.Deliveries[0][7] != 2 || out.Deliveries[1][7] != 0 {
		t.Errorf("deliveries wrong: %v", out.Deliveries)
	}
	if code := postJSON(t, ts.URL+"/v1/pipeline", PipelineRequest{N: 8, Gap: 0}, nil); code != http.StatusBadRequest {
		t.Errorf("empty batch: status %d, want 400", code)
	}
	if code := postJSON(t, ts.URL+"/v1/pipeline", PipelineRequest{N: 8, Gap: 1, Batch: [][][]int{{{0}, {0}}}}, nil); code != http.StatusUnprocessableEntity {
		t.Errorf("bad assignment: status %d, want 422", code)
	}
}
