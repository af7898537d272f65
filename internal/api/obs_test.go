package api

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"brsmn/internal/groupd"
	"brsmn/internal/obs"
	"brsmn/internal/shard"
)

// newObsServer spins up a fully instrumented server: registry, tracer
// sampling every replan, and a one-shard Set sharing both.
func newObsServer(t *testing.T) (*httptest.Server, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	tracer := obs.NewTraceRecorder(1)
	set := newTestSet(t, func(c *shard.Config) {
		c.Metrics = reg
		c.Group.Tracer = tracer
	})
	ts := httptest.NewServer(NewServer(set, nil, WithMetrics(reg), WithTracer(tracer)))
	t.Cleanup(ts.Close)
	return ts, reg
}

func TestMetricsEndpoint(t *testing.T) {
	ts, _ := newObsServer(t)

	// Generate some traffic so the HTTP series exist.
	var created groupd.GroupInfo
	if code := doJSON(t, "POST", ts.URL+"/v1/groups", CreateGroupRequest{ID: "conf", Source: 2, Members: []int{3, 4, 7}}, &created); code != http.StatusCreated {
		t.Fatalf("create = %d", code)
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/epoch", nil, nil); code != http.StatusOK {
		t.Fatalf("epoch = %d", code)
	}

	// The exposition is served both at /v1/metrics and, for scrapers
	// that don't follow redirects, directly at /metrics.
	for _, path := range []string{"/metrics", "/v1/metrics"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d", path, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Fatalf("%s content-type = %q", path, ct)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		text := string(raw)
		for _, series := range []string{
			"# TYPE brsmn_epoch_duration_seconds histogram",
			"brsmn_plan_cache_ops_total{op=\"miss\",shard=\"0\"}",
			"brsmn_plan_patches_total{result=\"full\",shard=\"0\"} 1",
			"brsmn_http_requests_total{handler=\"group_create\",code=\"201\"} 1",
			"brsmn_http_request_seconds",
			"brsmn_groups{shard=\"0\"} 1",
		} {
			if !strings.Contains(text, series) {
				t.Errorf("%s missing %q", path, series)
			}
		}
	}
}

// TestMetricsConcurrentCodes drives one handler from several goroutines
// with two status codes at once: every request lands on exactly one
// (handler, code) counter and one latency observation.
func TestMetricsConcurrentCodes(t *testing.T) {
	reg := obs.NewRegistry()
	s := newSizedServer(t, 16, WithMetrics(reg))
	const goroutines, each = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				path := "/v1/cost?n=8"
				if i%2 == 1 {
					path = "/v1/cost?n=3"
				}
				s.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", path, nil))
			}
		}()
	}
	wg.Wait()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	half := fmt.Sprint(goroutines * each / 2)
	for _, line := range []string{
		`brsmn_http_requests_total{handler="cost",code="200"} ` + half,
		`brsmn_http_requests_total{handler="cost",code="400"} ` + half,
		`brsmn_http_request_seconds_count{handler="cost"} ` + fmt.Sprint(goroutines*each),
	} {
		if !strings.Contains(b.String(), line+"\n") {
			t.Errorf("exposition missing %q", line)
		}
	}
}

func TestMetricsDisabled(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/metrics without registry = %d, want 503", resp.StatusCode)
	}
}

func TestTraceEndpoint(t *testing.T) {
	ts, _ := newObsServer(t)

	if code := doJSON(t, "POST", ts.URL+"/v1/groups", CreateGroupRequest{ID: "conf", Source: 2, Members: []int{3, 4, 7}}, nil); code != http.StatusCreated {
		t.Fatalf("create = %d", code)
	}
	// The replan (and with it the sampled trace) happens on plan demand.
	if code := doJSON(t, "GET", ts.URL+"/v1/groups/conf/plan", nil, nil); code != http.StatusOK {
		t.Fatalf("plan = %d", code)
	}

	var got TraceResponse
	if code := doJSON(t, "GET", ts.URL+"/v1/trace/conf", nil, &got); code != http.StatusOK {
		t.Fatalf("/v1/trace/conf = %d", code)
	}
	if got.Group != "conf" || got.Trace == nil {
		t.Fatalf("trace response = %+v", got)
	}
	if got.Trace.N != 16 || got.Trace.Fanout != 3 || got.Trace.TotalNs <= 0 || got.Trace.Settings <= 0 {
		t.Fatalf("trace body = %+v", got.Trace)
	}

	resp, err := http.Get(ts.URL + "/v1/trace/unknown")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/v1/trace/unknown = %d, want 404", resp.StatusCode)
	}

	// Without a tracer the endpoint is disabled, not missing.
	bare := newTestServer(t)
	resp, err = http.Get(bare.URL + "/v1/trace/conf")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/v1/trace without tracer = %d, want 503", resp.StatusCode)
	}
}

// checkJSONError asserts an error response is JSON all the way: content
// type, a decodable envelope with a machine-readable code and null data,
// and the expected status.
func checkJSONError(t *testing.T, resp *http.Response, wantCode int) *ErrorBody {
	t.Helper()
	if resp.StatusCode != wantCode {
		t.Fatalf("%s: status %d, want %d", resp.Request.URL.Path, resp.StatusCode, wantCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("%s: content-type %q, want application/json", resp.Request.URL.Path, ct)
	}
	e := readEnvelope(t, resp, nil)
	if e == nil || e.Code == "" || e.Message == "" {
		t.Fatalf("%s: error half is empty: %+v", resp.Request.URL.Path, e)
	}
	return e
}

// TestMethodNotAllowedJSON: a wrong method on a real /v1 endpoint must
// answer 405 (not 404) with the JSON envelope and an Allow header.
func TestMethodNotAllowedJSON(t *testing.T) {
	ts, _ := newObsServer(t)
	cases := []struct {
		method, path, allow string
	}{
		{"PUT", "/v1/faults", "GET, POST, DELETE"},
		{"GET", "/v1/probe", "POST"},
		{"DELETE", "/v1/probe", "POST"},
		{"GET", "/v1/route", "POST"},
		{"PUT", "/v1/groups", "GET, POST"},
		{"PATCH", "/v1/groups/conf", "GET, DELETE"},
		{"POST", "/v1/metrics", "GET"},
		{"POST", "/metrics", "GET"},
		{"POST", "/healthz", "GET"},
		{"POST", "/v1/trace/conf", "GET"},
		{"DELETE", "/v1/epoch", "GET, POST"},
		{"DELETE", "/v1/shards", "GET"},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		e := checkJSONError(t, resp, http.StatusMethodNotAllowed)
		if e.Code != CodeMethodNotAllowed {
			t.Errorf("%s %s: code %q, want %q", tc.method, tc.path, e.Code, CodeMethodNotAllowed)
		}
		if allow := resp.Header.Get("Allow"); allow != tc.allow {
			t.Errorf("%s %s: Allow %q, want %q", tc.method, tc.path, allow, tc.allow)
		}
	}
}

func TestNotFoundJSON(t *testing.T) {
	ts, _ := newObsServer(t)
	for _, tc := range []struct{ method, path string }{
		{"GET", "/no/such/endpoint"},
		{"GET", "/v1/no/such/endpoint"},
		{"GET", "/v2/route"},
		{"GET", "/groups"},
		{"POST", "/route"},
	} {
		resp := mustDo(t, tc.method, ts.URL+tc.path, "")
		if e := checkJSONError(t, resp, http.StatusNotFound); e.Code != CodeNotFound {
			t.Errorf("%s %s: code %q, want %q", tc.method, tc.path, e.Code, CodeNotFound)
		}
	}
}

// TestMalformedJSONBody asserts every decoding endpoint answers 400
// with the envelope and a field-level reason on syntactically broken
// request JSON.
func TestMalformedJSONBody(t *testing.T) {
	ts, _ := newObsServer(t)
	for _, path := range []string{"/v1/route", "/v1/schedule", "/v1/plan", "/v1/pipeline", "/v1/groups"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(`{"n": 8,`))
		if err != nil {
			t.Fatal(err)
		}
		e := checkJSONError(t, resp, http.StatusBadRequest)
		if e.Code != CodeBadRequest || len(e.Fields) == 0 || e.Fields[0].Field != "body" {
			t.Errorf("%s: error = %+v, want bad_request with a body field reason", path, e)
		}
	}
}
