package api

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"brsmn/internal/shard"
	"brsmn/internal/store"
)

func TestAdminSnapshotEndpoint(t *testing.T) {
	st := store.NewMem()
	set := newTestSet(t, func(c *shard.Config) {
		c.NewStore = func(int) (store.Store, error) { return st, nil }
	})
	ts := httptest.NewServer(NewServer(set, nil))
	t.Cleanup(ts.Close)

	if code := doJSON(t, "POST", ts.URL+"/v1/groups",
		CreateGroupRequest{ID: "conf", Source: 2, Members: []int{3, 4}}, nil); code != http.StatusCreated {
		t.Fatalf("create = %d", code)
	}
	var resp SnapshotResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/admin/snapshot", nil, &resp); code != http.StatusOK {
		t.Fatalf("snapshot = %d", code)
	}
	if len(resp.Snapshots) != 1 {
		t.Fatalf("snapshots = %+v", resp.Snapshots)
	}
	if s := resp.Snapshots[0]; s.Groups != 1 || s.Bytes <= 0 {
		t.Fatalf("snapshot info = %+v", s)
	}
	if !st.HasSnapshot() {
		t.Fatal("store has no snapshot after admin snapshot")
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/admin/snapshot", nil, nil); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET snapshot = %d, want 405", code)
	}
}

func TestAdminSnapshotUnavailable(t *testing.T) {
	// A storeless set: SnapshotAll reports groupd.ErrNoStore, which the
	// endpoint maps to 503.
	ts := newTestServer(t)
	if code := doJSON(t, "POST", ts.URL+"/v1/admin/snapshot", nil, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("snapshot without store = %d, want 503", code)
	}
}
