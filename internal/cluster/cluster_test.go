package cluster

// In-process cluster tests: real shard sets, real api servers, real
// HTTP between nodes — only the listeners are httptest. These cover the
// acceptance contracts: differential plan identity across nodes,
// forwarding semantics, drain with zero group loss and warm
// byte-identical plans on the gaining node, and forwarding to a
// just-migrated group.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"brsmn/internal/api"
	"brsmn/internal/groupd"
	"brsmn/internal/obs"
	"brsmn/internal/shard"
)

// testNode is one in-process cluster member.
type testNode struct {
	id   string
	set  *shard.Set
	node *Node
	ts   *httptest.Server
	reg  *obs.Registry
	url  string
}

// testCluster builds n nodes (ids "a", "b", ...) that know each other
// via real loopback URLs. Caller order at teardown mirrors brsmnd:
// node, then set, then listener.
func testCluster(t *testing.T, n int, mutate func(id string, cfg *Config)) map[string]*testNode {
	t.Helper()
	ids := make([]string, n)
	servers := make(map[string]*httptest.Server, n)
	peers := make(map[string]string, n)
	for i := range ids {
		id := string(rune('a' + i))
		ids[i] = id
		ts := httptest.NewUnstartedServer(http.NotFoundHandler())
		servers[id] = ts
		peers[id] = "http://" + ts.Listener.Addr().String()
	}
	nodes := make(map[string]*testNode, n)
	for _, id := range ids {
		reg := obs.NewRegistry()
		reg.SetCommonLabel(fmt.Sprintf("node=%q", id))
		set, err := shard.New(shard.Config{
			Shards:     2,
			Group:      groupd.Config{N: 16},
			TicketNode: id,
		})
		if err != nil {
			t.Fatal(err)
		}
		tn := &testNode{id: id, set: set, reg: reg, url: peers[id]}
		apiSrv := api.NewServer(set, nil,
			api.WithMetrics(reg),
			api.WithReadiness(func() error {
				if tn.node == nil {
					return nil
				}
				return tn.node.Ready()
			}))
		cfg := Config{
			Self:      id,
			Peers:     peers,
			Local:     set,
			Handler:   apiSrv,
			PollEvery: 25 * time.Millisecond,
			Metrics:   reg,
			Logf:      t.Logf,
		}
		if mutate != nil {
			mutate(id, &cfg)
		}
		node, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tn.node = node
		servers[id].Config.Handler = node
		servers[id].Start()
		tn.ts = servers[id]
		nodes[id] = tn
		t.Cleanup(func() {
			tn.node.Close()
			tn.set.Close()
			tn.ts.Close()
		})
	}
	return nodes
}

// env unwraps the /v1 envelope into the given data shape.
func env[T any](t *testing.T, resp *http.Response, want int) T {
	t.Helper()
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != want {
		t.Fatalf("HTTP %d (want %d): %s", resp.StatusCode, want, raw)
	}
	var e struct {
		Data  T `json:"data"`
		Error *struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(raw, &e); err != nil {
		t.Fatalf("decoding %s: %v", raw, err)
	}
	if e.Error != nil {
		t.Fatalf("error envelope: %+v", e.Error)
	}
	return e.Data
}

type planData struct {
	ID      string `json:"id"`
	Gen     uint64 `json:"gen"`
	Cached  bool   `json:"cached"`
	Columns int    `json:"columns"`
	Plan    string `json:"plan"`
}

func createGroup(t *testing.T, base, id string, source int, members []int) {
	t.Helper()
	body, _ := json.Marshal(map[string]any{"id": id, "source": source, "members": members})
	resp, err := http.Post(base+"/v1/groups", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	env[map[string]any](t, resp, http.StatusCreated)
}

func getPlan(t *testing.T, base, id string) (planData, *http.Response) {
	t.Helper()
	resp, err := http.Get(base + "/v1/groups/" + id + "/plan")
	if err != nil {
		t.Fatal(err)
	}
	return env[planData](t, resp, http.StatusOK), resp
}

// TestClusterDifferential is the any-node/any-group identity check:
// the same groups created on a 3-node cluster and on a standalone
// server yield byte-identical plans, no matter which node answers.
func TestClusterDifferential(t *testing.T) {
	nodes := testCluster(t, 3, nil)

	soloSet, err := shard.New(shard.Config{Shards: 2, Group: groupd.Config{N: 16}})
	if err != nil {
		t.Fatal(err)
	}
	defer soloSet.Close()
	solo := httptest.NewServer(api.NewServer(soloSet, nil))
	defer solo.Close()

	urls := []string{nodes["a"].url, nodes["b"].url, nodes["c"].url}
	for i := 0; i < 24; i++ {
		id := fmt.Sprintf("diff-%02d", i)
		// Disjoint ranges keep source and members distinct.
		members := []int{4 + i%4, 8 + i%4, 12 + i%4}
		// Cluster create lands on a rotating node; solo gets the same.
		createGroup(t, urls[i%3], id, i%4, members)
		createGroup(t, solo.URL, id, i%4, members)
	}
	for i := 0; i < 24; i++ {
		id := fmt.Sprintf("diff-%02d", i)
		want, _ := getPlan(t, solo.URL, id)
		for _, u := range urls {
			got, _ := getPlan(t, u, id)
			if got.Plan != want.Plan || got.Gen != want.Gen || got.Columns != want.Columns {
				t.Fatalf("%s via %s: plan diverged from single-node run\n got %+v\nwant %+v", id, u, got, want)
			}
		}
	}
}

// TestClusterForwarding checks a request at a non-owner is proxied to
// the ring owner (marked with the forwarding headers), while the owner
// serves it first-touch.
func TestClusterForwarding(t *testing.T) {
	nodes := testCluster(t, 3, nil)
	createGroup(t, nodes["a"].url, "fwd-probe", 1, []int{2, 5})

	ownerID := nodes["a"].node.Owner("fwd-probe")
	var nonOwner *testNode
	for id, tn := range nodes {
		if id != ownerID {
			nonOwner = tn
			break
		}
	}

	_, resp := getPlan(t, nodes[ownerID].url, "fwd-probe")
	if resp.Header.Get(HeaderForwarded) != "" {
		t.Fatalf("owner response marked forwarded: %q", resp.Header.Get(HeaderForwarded))
	}
	if got := resp.Header.Get(HeaderNode); got != ownerID {
		t.Fatalf("owner response served by %q, want %q", got, ownerID)
	}

	_, resp = getPlan(t, nonOwner.url, "fwd-probe")
	path := resp.Header.Get(HeaderForwarded)
	if path != nonOwner.id+">"+ownerID {
		t.Fatalf("forwarded path = %q, want %q", path, nonOwner.id+">"+ownerID)
	}
	if got := resp.Header.Get(HeaderNode); got != ownerID {
		t.Fatalf("forwarded response served by %q, want owner %q", got, ownerID)
	}

	// The proxy hop shows up on the non-owner's scrape, labeled with its
	// node identity. (The create may have forwarded too, so assert >= 1
	// rather than an exact count.)
	var sb strings.Builder
	if err := nonOwner.reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf(`brsmn_cluster_forwarded_total{node=%q} `, nonOwner.id)
	found := false
	for _, line := range strings.Split(sb.String(), "\n") {
		if v, ok := strings.CutPrefix(line, want); ok {
			found = true
			if v == "0" {
				t.Fatalf("forwarded counter is 0 after a proxied request: %q", line)
			}
		}
	}
	if !found {
		t.Fatalf("scrape missing series %q", strings.TrimSpace(want))
	}
}

// TestClusterAutoIDCreate checks POST /v1/groups without an ID gets a
// node-scoped unique ID and still lands on its ring owner.
func TestClusterAutoIDCreate(t *testing.T) {
	nodes := testCluster(t, 3, nil)
	body := `{"source":1,"members":[2,5]}`
	resp, err := http.Post(nodes["b"].url+"/v1/groups", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data := env[map[string]any](t, resp, http.StatusCreated)
	id, _ := data["id"].(string)
	if !strings.HasPrefix(id, "b-g") {
		t.Fatalf("auto ID %q not scoped to the receiving node", id)
	}
	// The group is reachable from every node.
	for _, tn := range nodes {
		if _, err := http.Get(tn.url + "/v1/groups/" + id); err != nil {
			t.Fatal(err)
		}
		p, _ := getPlan(t, tn.url, id)
		if p.ID != id {
			t.Fatalf("plan for %q answered as %q", id, p.ID)
		}
	}
}

// waitFor polls until cond is true or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClusterDrainZeroLoss is the drain acceptance test: draining a
// node loses zero groups, the gaining nodes serve warm byte-identical
// plans from the migrated snapshots, and the drained node reports
// not-ready while staying alive.
func TestClusterDrainZeroLoss(t *testing.T) {
	nodes := testCluster(t, 3, nil)
	urls := []string{nodes["a"].url, nodes["b"].url, nodes["c"].url}

	const groups = 60
	plans := make(map[string]planData, groups)
	for i := 0; i < groups; i++ {
		id := fmt.Sprintf("drain-%03d", i)
		createGroup(t, urls[i%3], id, i%4, []int{1 + i%5, 8 + i%7})
	}
	// Warm every owner's plan cache and record the canonical bytes.
	for i := 0; i < groups; i++ {
		id := fmt.Sprintf("drain-%03d", i)
		p, _ := getPlan(t, urls[i%3], id)
		plans[id] = p
	}

	victim := nodes["a"]
	held := victim.set.Count()
	if held == 0 {
		t.Fatal("placement left node a empty; test needs a non-trivial drain")
	}

	// Readiness flips before the sweep finishes; liveness stays up.
	resp, err := http.Post(victim.url+"/v1/cluster/drain", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	d := env[DrainResponse](t, resp, http.StatusAccepted)
	if !d.Draining {
		t.Fatalf("drain reply = %+v", d)
	}
	if resp, err := http.Get(victim.url + "/v1/readyz"); err != nil {
		t.Fatal(err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("draining node /v1/readyz = %d, want 503", resp.StatusCode)
		}
	}
	if resp, err := http.Get(victim.url + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("draining node /healthz = %d, want 200 (liveness)", resp.StatusCode)
		}
	}

	// A second drain is idempotent.
	resp, err = http.Post(victim.url+"/v1/cluster/drain", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	env[DrainResponse](t, resp, http.StatusAccepted)

	waitFor(t, "drain sweep to empty node a", func() bool { return victim.set.Count() == 0 })

	// Peers converge on the new membership view (their next poll) before
	// their rings can be asked about the new ownership.
	for _, peerID := range []string{"b", "c"} {
		tn := nodes[peerID]
		waitFor(t, peerID+" to drop a from its ring", func() bool {
			for i := 0; i < groups; i++ {
				if tn.node.Owner(fmt.Sprintf("drain-%03d", i)) == "a" {
					return false
				}
			}
			return true
		})
	}

	// Zero loss: every group still exists exactly once across b and c.
	if total := nodes["b"].set.Count() + nodes["c"].set.Count(); total != groups {
		t.Fatalf("groups after drain = %d, want %d", total, groups)
	}
	if moved := victim.node.nMigratedOut.Load(); moved != uint64(held) {
		t.Fatalf("migrated-out = %d, want %d", moved, held)
	}

	// Warm handoff: the gaining node answers from the restored snapshot
	// — cached on the very first request, byte-identical plan.
	for id, want := range plans {
		ownerID := nodes["b"].node.Owner(id)
		if ownerID == "a" {
			t.Fatalf("ring still places %s on the drained node", id)
		}
		got, _ := getPlan(t, nodes[ownerID].url, id)
		if got.Plan != want.Plan || got.Gen != want.Gen {
			t.Fatalf("%s after drain: plan diverged\n got %+v\nwant %+v", id, got, want)
		}
		if !got.Cached {
			t.Fatalf("%s after drain: first plan fetch on the gaining node was a cache miss", id)
		}
	}

	// The drained node keeps serving: requests land there and are
	// forwarded to the new owners (the just-migrated-group check).
	for _, id := range []string{"drain-000", "drain-031", "drain-059"} {
		got, resp := getPlan(t, victim.url, id)
		if got.Plan != plans[id].Plan {
			t.Fatalf("%s via drained node: wrong plan", id)
		}
		if fwd := resp.Header.Get(HeaderForwarded); !strings.HasPrefix(fwd, "a>") {
			t.Fatalf("%s via drained node: forwarded path %q, want a>...", id, fwd)
		}
	}

	// Peers converge on the draining state and their cluster view keeps
	// the full group count.
	waitFor(t, "peer b to see a draining", func() bool {
		resp, err := http.Get(nodes["b"].url + "/v1/cluster")
		if err != nil {
			return false
		}
		st := env[Status](t, resp, http.StatusOK)
		for _, row := range st.Nodes {
			if row.ID == "a" {
				return row.State == "draining" && st.Groups == groups
			}
		}
		return false
	})
}

// TestClusterMigratedGroupMutable checks a migrated group accepts
// writes on its new owner: generation continues from the migrated
// value and replans reflect the change.
func TestClusterMigratedGroupMutable(t *testing.T) {
	nodes := testCluster(t, 3, nil)
	createGroup(t, nodes["b"].url, "mut-1", 1, []int{2, 5})
	before, _ := getPlan(t, nodes["b"].url, "mut-1")

	owner := nodes["a"].node.Owner("mut-1")
	nodes[owner].node.Drain()
	if err := nodes[owner].node.SweepWait(); err != nil {
		t.Fatal(err)
	}

	// The drained node's own ring (which excludes it) names the new
	// owner; peers converge on the same answer after their next poll.
	newOwner := nodes[owner].node.Owner("mut-1")
	if newOwner == owner {
		t.Fatalf("drained node still claims mut-1 (owner %s)", owner)
	}

	body := strings.NewReader(`{"dest":9}`)
	resp, err := http.Post(nodes[newOwner].url+"/v1/groups/mut-1/join", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	env[map[string]any](t, resp, http.StatusOK)
	after, _ := getPlan(t, nodes[newOwner].url, "mut-1")
	if after.Gen <= before.Gen {
		t.Fatalf("generation did not advance across migration: %d -> %d", before.Gen, after.Gen)
	}
	if after.Plan == before.Plan {
		t.Fatal("plan unchanged after post-migration join")
	}
}

// TestClusterConcurrentWritesDuringDrain races membership writes
// against the drain sweep: the gen-guarded migration must never drop a
// write — every group survives, and any group whose join landed before
// the final export carries it.
func TestClusterConcurrentWritesDuringDrain(t *testing.T) {
	nodes := testCluster(t, 3, nil)
	urls := []string{nodes["a"].url, nodes["b"].url, nodes["c"].url}
	const groups = 40
	for i := 0; i < groups; i++ {
		createGroup(t, urls[i%3], fmt.Sprintf("race-%03d", i), 0, []int{1 + i%5})
	}

	stop := make(chan struct{})
	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := fmt.Sprintf("race-%03d", (w*13+i)%groups)
				body := strings.NewReader(fmt.Sprintf(`{"dest":%d}`, 1+(w+i)%14))
				resp, err := http.Post(urls[(w+i)%3]+"/v1/groups/"+id+"/join", "application/json", body)
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}(w)
	}

	time.Sleep(20 * time.Millisecond) // let writes overlap the sweep
	nodes["a"].node.Drain()
	if err := nodes["a"].node.SweepWait(); err != nil {
		t.Fatalf("sweep under write load: %v", err)
	}
	close(stop)
	writers.Wait()

	// One more sweep moves anything (re)written onto a after the first
	// pass; then the invariants must hold exactly.
	if err := nodes["a"].node.SweepWait(); err != nil {
		t.Fatal(err)
	}
	if got := nodes["a"].set.Count(); got != 0 {
		t.Fatalf("drained node still holds %d groups", got)
	}
	if total := nodes["b"].set.Count() + nodes["c"].set.Count(); total != groups {
		t.Fatalf("groups after racing drain = %d, want %d", total, groups)
	}
	for i := 0; i < groups; i++ {
		id := fmt.Sprintf("race-%03d", i)
		if _, err := nodes["b"].set.Get(id); err != nil {
			if _, err2 := nodes["c"].set.Get(id); err2 != nil {
				t.Fatalf("%s lost during racing drain: %v / %v", id, err, err2)
			}
		}
	}
}
