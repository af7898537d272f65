package api

import (
	"net/http"
	"testing"

	"brsmn/internal/cost"
)

// TestBackendsEndpoint checks the backend catalogue: every fabric with
// its patch capability and cost row at the serving size.
func TestBackendsEndpoint(t *testing.T) {
	ts := newTestServer(t)

	var got BackendsResponse
	if code := doJSON(t, "GET", ts.URL+"/v1/backends", nil, &got); code != http.StatusOK {
		t.Fatalf("GET /v1/backends = %d", code)
	}
	if got.N != 16 {
		t.Errorf("n = %d, want 16", got.N)
	}
	want := []struct {
		name  string
		patch bool
		cost  cost.Row
	}{
		{"brsmn", true, cost.BRSMN(16)},
		{"feedback", false, cost.Feedback(16)},
		{"permnet", false, cost.PermNet(16)},
	}
	if len(got.Backends) != len(want) {
		t.Fatalf("got %d backends, want %d", len(got.Backends), len(want))
	}
	for i, w := range want {
		if b := got.Backends[i]; b.Name != w.name || b.Patch != w.patch || b.Cost != w.cost {
			t.Errorf("row %d = %+v, want %s patch=%v cost %+v", i, b, w.name, w.patch, w.cost)
		}
	}
}

// TestGroupBackendHTTP checks that a created group is planned on the
// full BRSMN: one pass, with the BRSMN cost row at the serving size.
func TestGroupBackendHTTP(t *testing.T) {
	ts := newTestServer(t)

	if code := doJSON(t, "POST", ts.URL+"/v1/groups",
		CreateGroupRequest{ID: "conf", Source: 2, Members: []int{3, 4, 7}}, nil); code != http.StatusCreated {
		t.Fatalf("create = %d", code)
	}
	var plan GroupPlanResponse
	if code := doJSON(t, "GET", ts.URL+"/v1/groups/conf/plan", nil, &plan); code != http.StatusOK {
		t.Fatalf("plan = %d", code)
	}
	if plan.Backend != "brsmn" || plan.Passes != 1 {
		t.Errorf("plan backend %q passes %d, want brsmn/1", plan.Backend, plan.Passes)
	}
	if plan.Cost == nil || *plan.Cost != cost.BRSMN(16) {
		t.Errorf("plan cost %+v, want %+v", plan.Cost, cost.BRSMN(16))
	}
}
