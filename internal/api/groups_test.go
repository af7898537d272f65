package api

import (
	"bytes"
	"net/http"
	"testing"

	"brsmn/internal/groupd"
)

// TestGroupLifecycleHTTP walks a group through create / join / leave /
// epoch / plan / delete over the wire.
func TestGroupLifecycleHTTP(t *testing.T) {
	ts := newTestServer(t)

	var info groupd.GroupInfo
	code := doJSON(t, "POST", ts.URL+"/v1/groups",
		CreateGroupRequest{ID: "conf", Source: 2, Members: []int{3, 4, 7}}, &info)
	if code != http.StatusCreated {
		t.Fatalf("create = %d", code)
	}
	if info.ID != "conf" || info.Gen != 1 || info.Size != 3 {
		t.Fatalf("create info = %+v", info)
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/groups",
		CreateGroupRequest{ID: "conf", Source: 1}, nil); code != http.StatusConflict {
		t.Fatalf("duplicate create = %d, want 409", code)
	}

	var u groupd.Update
	if code := doJSON(t, "POST", ts.URL+"/v1/groups/conf/join", MembershipRequest{Dest: 9}, &u); code != http.StatusOK {
		t.Fatalf("join = %d", code)
	}
	if u.Gen != 2 || u.Size != 4 {
		t.Fatalf("join update = %+v", u)
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/groups/conf/leave", MembershipRequest{Dest: 3}, &u); code != http.StatusOK {
		t.Fatalf("leave = %d", code)
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/groups/conf/join", MembershipRequest{Dest: 9}, nil); code != http.StatusUnprocessableEntity {
		t.Fatalf("double join = %d, want 422", code)
	}

	var got groupd.GroupInfo
	if code := doJSON(t, "GET", ts.URL+"/v1/groups/conf", nil, &got); code != http.StatusOK {
		t.Fatalf("get = %d", code)
	}
	if got.Size != 3 || got.Sequence == "" {
		t.Fatalf("get info = %+v", got)
	}

	var rep groupd.EpochReport
	if code := doJSON(t, "POST", ts.URL+"/v1/epoch", nil, &rep); code != http.StatusOK {
		t.Fatalf("epoch run = %d", code)
	}
	if rep.Epoch != 1 || rep.Groups != 1 || len(rep.Rounds) != 1 {
		t.Fatalf("epoch report = %+v", rep)
	}
	for _, d := range got.Members {
		if rep.Rounds[0].Deliveries[d] != got.Source {
			t.Fatalf("epoch delivered %d at output %d, want %d", rep.Rounds[0].Deliveries[d], d, got.Source)
		}
	}
	var rep2 groupd.EpochReport
	if code := doJSON(t, "GET", ts.URL+"/v1/epoch", nil, &rep2); code != http.StatusOK {
		t.Fatalf("epoch get = %d", code)
	}
	if rep2.Epoch != rep.Epoch {
		t.Fatalf("GET /v1/epoch = %+v, want epoch %d", rep2, rep.Epoch)
	}

	// The epoch warmed the plan cache: the first explicit plan fetch hits.
	var plan GroupPlanResponse
	if code := doJSON(t, "GET", ts.URL+"/v1/groups/conf/plan", nil, &plan); code != http.StatusOK {
		t.Fatalf("plan = %d", code)
	}
	if !plan.Cached || plan.Columns == 0 || plan.Plan == "" {
		t.Fatalf("plan = %+v, want warm cache hit", plan)
	}

	var list GroupListResponse
	if code := doJSON(t, "GET", ts.URL+"/v1/groups", nil, &list); code != http.StatusOK || list.Count != 1 {
		t.Fatalf("list = %d / %+v", code, list)
	}
	if code := doJSON(t, "DELETE", ts.URL+"/v1/groups/conf", nil, nil); code != http.StatusOK {
		t.Fatalf("delete = %d", code)
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/groups/conf", nil, nil); code != http.StatusNotFound {
		t.Fatalf("get after delete = %d, want 404", code)
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/groups/conf/join", MembershipRequest{Dest: 1}, nil); code != http.StatusNotFound {
		t.Fatalf("join after delete = %d, want 404", code)
	}
}

func TestGroupCreateValidationHTTP(t *testing.T) {
	ts := newTestServer(t)
	// Structurally valid but out of range for the fabric: the manager
	// rejects it, 422.
	if code := doJSON(t, "POST", ts.URL+"/v1/groups", CreateGroupRequest{Source: 99}, nil); code != http.StatusUnprocessableEntity {
		t.Fatalf("bad source = %d, want 422", code)
	}
	// Structurally invalid: negative ports fail the shared validator, 400.
	if code := doJSON(t, "POST", ts.URL+"/v1/groups", CreateGroupRequest{ID: "g", Source: -1}, nil); code != http.StatusBadRequest {
		t.Fatalf("negative source = %d, want 400", code)
	}
	resp, err := http.Post(ts.URL+"/v1/groups", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON = %d, want 400", resp.StatusCode)
	}
}

// TestGroupListPagination pins the Link-header pagination contract on
// GET /v1/groups.
func TestGroupListPagination(t *testing.T) {
	ts := newTestServer(t)
	ids := []string{"a", "b", "c", "d", "e"}
	for i, id := range ids {
		if code := doJSON(t, "POST", ts.URL+"/v1/groups",
			CreateGroupRequest{ID: id, Source: i, Members: []int{8 + i}}, nil); code != http.StatusCreated {
			t.Fatalf("create %s = %d", id, code)
		}
	}

	get := func(query string) (GroupListResponse, http.Header) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/groups" + query)
		if err != nil {
			t.Fatal(err)
		}
		var list GroupListResponse
		if e := readEnvelope(t, resp, &list); e != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("list%s = %d / %+v", query, resp.StatusCode, e)
		}
		return list, resp.Header
	}

	// First page: 2 of 5, a "next" link, no "prev".
	list, hdr := get("?limit=2")
	if list.Count != 5 || list.Offset != 0 || len(list.Groups) != 2 {
		t.Fatalf("page 1 = %+v", list)
	}
	links := hdr.Values("Link")
	if len(links) != 1 || !containsAll(links[0], `rel="next"`, "offset=2", "limit=2") {
		t.Fatalf("page 1 Link = %q", links)
	}

	// Middle page: both links.
	list, hdr = get("?limit=2&offset=2")
	if len(list.Groups) != 2 || list.Offset != 2 {
		t.Fatalf("page 2 = %+v", list)
	}
	var next, prev bool
	for _, l := range hdr.Values("Link") {
		next = next || containsAll(l, `rel="next"`, "offset=4")
		prev = prev || containsAll(l, `rel="prev"`, "offset=0")
	}
	if !next || !prev {
		t.Fatalf("page 2 Link = %q", hdr.Values("Link"))
	}

	// Last page: 1 group, no "next".
	list, hdr = get("?limit=2&offset=4")
	if len(list.Groups) != 1 {
		t.Fatalf("page 3 = %+v", list)
	}
	for _, l := range hdr.Values("Link") {
		if containsAll(l, `rel="next"`) {
			t.Fatalf("page 3 has a next link: %q", l)
		}
	}

	// Offset past the end clamps to an empty window, not an error.
	if list, _ = get("?limit=2&offset=99"); len(list.Groups) != 0 || list.Count != 5 {
		t.Fatalf("overshoot = %+v", list)
	}

	// Junk paging parameters are a uniform 400.
	if code := doJSON(t, "GET", ts.URL+"/v1/groups?limit=x", nil, nil); code != http.StatusBadRequest {
		t.Fatalf("limit=x = %d, want 400", code)
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/groups?offset=-3", nil, nil); code != http.StatusBadRequest {
		t.Fatalf("offset=-3 = %d, want 400", code)
	}
}

func containsAll(s string, subs ...string) bool {
	for _, sub := range subs {
		if !bytes.Contains([]byte(s), []byte(sub)) {
			return false
		}
	}
	return true
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t)
	var h HealthResponse
	if code := doJSON(t, "GET", ts.URL+"/healthz", nil, &h); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
	if h.Status != "ok" || h.Groups != 0 {
		t.Fatalf("healthz = %+v", h)
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/groups", CreateGroupRequest{ID: "g", Source: 0, Members: []int{1}}, nil); code != http.StatusCreated {
		t.Fatalf("create = %d", code)
	}
	if doJSON(t, "GET", ts.URL+"/v1/healthz", nil, &h); h.Groups != 1 || h.Pending == 0 {
		t.Fatalf("healthz after create = %+v", h)
	}
}
