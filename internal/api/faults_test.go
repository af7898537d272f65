package api

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"brsmn/internal/faultd"
	"brsmn/internal/groupd"
	"brsmn/internal/shard"
	"brsmn/internal/swbox"
)

// newFaultServer spins up a server over a one-shard Set with a fault
// monitor wired in as the shard's policy, manual-epoch mode.
func newFaultServer(t *testing.T) (*httptest.Server, *faultd.Monitor) {
	t.Helper()
	inj := faultd.NewInjector(1)
	fm, err := faultd.NewMonitor(faultd.Config{N: 16, ProbeCount: 4}, inj)
	if err != nil {
		t.Fatal(err)
	}
	set := newTestSet(t, func(c *shard.Config) {
		c.NewPolicy = func(int) groupd.FaultPolicy { return fm }
	})
	ts := httptest.NewServer(NewServer(set, []*faultd.Monitor{fm}))
	t.Cleanup(ts.Close)
	return ts, fm
}

// TestFaultLifecycleHTTP arms a fault over the wire, probes, and reads
// the detection back out of the report and health endpoints.
func TestFaultLifecycleHTTP(t *testing.T) {
	ts, _ := newFaultServer(t)

	var fl FaultsResponse
	if code := doJSON(t, "GET", ts.URL+"/v1/faults", nil, &fl); code != http.StatusOK || len(fl.Faults) != 0 {
		t.Fatalf("fresh fault list: code %d, %+v", code, fl)
	}

	var probe faultd.ProbeReport
	if code := doJSON(t, "POST", ts.URL+"/v1/probe", nil, &probe); code != http.StatusOK {
		t.Fatalf("probe = %d", code)
	}
	if probe.Detected || probe.Probes != 4 {
		t.Fatalf("clean probe round: %+v", probe)
	}

	// One of the two unicast stuck values must disagree with some
	// probe's plan at this switch.
	detected := false
	for _, spec := range []string{"stuck:3:2:parallel", "stuck:3:2:cross"} {
		if code := doJSON(t, "DELETE", ts.URL+"/v1/faults", nil, nil); code != http.StatusOK {
			t.Fatalf("clear = %d", code)
		}
		if code := doJSON(t, "POST", ts.URL+"/v1/faults", InjectFaultsRequest{Spec: spec}, &fl); code != http.StatusOK {
			t.Fatalf("inject %q = %d", spec, code)
		}
		if len(fl.Faults) != 1 || fl.Faults[0].Col != 3 || fl.Faults[0].Switch != 2 {
			t.Fatalf("armed set after %q: %+v", spec, fl.Faults)
		}
		if code := doJSON(t, "POST", ts.URL+"/v1/probe", nil, &probe); code != http.StatusOK {
			t.Fatalf("probe = %d", code)
		}
		if probe.Detected {
			detected = true
			break
		}
	}
	if !detected {
		t.Fatal("no stuck value of (col 3, switch 2) was detected over the wire")
	}

	var rep faultd.Report
	if code := doJSON(t, "GET", ts.URL+"/v1/faults/report", nil, &rep); code != http.StatusOK {
		t.Fatal("report not served")
	}
	if !rep.Stats.Detected || len(rep.Candidates) == 0 || len(rep.Faults) != 1 {
		t.Fatalf("report after detection: %+v", rep)
	}

	var health HealthResponse
	if code := doJSON(t, "GET", ts.URL+"/v1/healthz", nil, &health); code != http.StatusOK {
		t.Fatal("healthz not served")
	}
	if health.Faults == nil || !health.Faults.Detected || health.Faults.ProbeRounds == 0 {
		t.Fatalf("healthz fault stats: %+v", health.Faults)
	}
}

func TestFaultEndpointsValidate(t *testing.T) {
	ts, fm := newFaultServer(t)
	// Empty request: structurally invalid, uniform 400.
	if code := doJSON(t, "POST", ts.URL+"/v1/faults", InjectFaultsRequest{}, nil); code != http.StatusBadRequest {
		t.Fatalf("empty inject = %d, want 400", code)
	}
	// Well-formed but semantically impossible faults: 422.
	for _, req := range []InjectFaultsRequest{
		{Spec: "stuck:999:0:cross"}, // column out of range
		{Faults: []faultd.Fault{{Kind: faultd.StuckAt, Col: 0, Switch: 99, Stuck: swbox.Cross}}},
	} {
		if code := doJSON(t, "POST", ts.URL+"/v1/faults", req, nil); code != http.StatusUnprocessableEntity {
			t.Fatalf("inject %+v = %d, want 422", req, code)
		}
	}
	if fm.Injector().Active() {
		t.Fatal("rejected requests armed faults")
	}
	// The ?shard selector on a one-shard server: 0 is the monitor,
	// anything else does not exist.
	if code := doJSON(t, "GET", ts.URL+"/v1/faults?shard=0", nil, nil); code != http.StatusOK {
		t.Fatalf("shard=0 = %d, want 200", code)
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/faults?shard=1", nil, nil); code != http.StatusNotFound {
		t.Fatalf("shard=1 = %d, want 404", code)
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/faults?shard=zebra", nil, nil); code != http.StatusBadRequest {
		t.Fatalf("shard=zebra = %d, want 400", code)
	}
}

func TestFaultEndpointsDisabledWithoutMonitor(t *testing.T) {
	ts := newTestServer(t)
	for _, ep := range []struct{ method, path string }{
		{"GET", "/v1/faults"}, {"POST", "/v1/faults"}, {"DELETE", "/v1/faults"},
		{"GET", "/v1/faults/report"}, {"POST", "/v1/probe"},
	} {
		if code := doJSON(t, ep.method, ts.URL+ep.path, nil, nil); code != http.StatusServiceUnavailable {
			t.Fatalf("%s %s = %d, want 503", ep.method, ep.path, code)
		}
	}
}
