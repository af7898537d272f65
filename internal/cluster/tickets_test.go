package cluster

// Async-admission forwarding tests: ticket submissions dispatch to the
// group's ring owner, polls and event streams follow the ticket ID's
// node suffix home, and the forwarding retry policy never replays a
// non-idempotent request that may already have been applied.

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"brsmn/internal/api"
	"brsmn/internal/groupd"
	"brsmn/internal/shard"
)

// TestClusterTicketLifecycle drives one async create end to end across
// a 3-node cluster: submit at a non-owner, poll and stream from a third
// node, and confirm the result landed on the ring owner.
func TestClusterTicketLifecycle(t *testing.T) {
	nodes := testCluster(t, 3, nil)

	const gid = "ctk-probe"
	owner := nodes["a"].node.Owner(gid)
	var submitter, third string
	for id := range nodes {
		if id == owner {
			continue
		}
		if submitter == "" {
			submitter = id
		} else {
			third = id
		}
	}

	// Submit at a non-owner: the 202 comes back via the forwarding tier
	// and the ticket ID carries the owner's node suffix — the ticket
	// lives where the work executes.
	body := fmt.Sprintf(`{"op":"create","group":%q,"source":1,"members":[2,5]}`, gid)
	resp, err := http.Post(nodes[submitter].url+"/v1/tickets", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	sub := env[api.TicketResponse](t, resp, http.StatusAccepted)
	if resp.Header.Get(HeaderForwarded) == "" {
		t.Fatal("non-owner submission was not forwarded")
	}
	if !strings.HasSuffix(sub.Ticket.ID, "@"+owner) {
		t.Fatalf("ticket %q not scoped to owner %q", sub.Ticket.ID, owner)
	}

	// Poll from a third node: the suffix routes the poll to the issuer.
	resp, err = http.Get(nodes[third].url + "/v1/tickets/" + sub.Ticket.ID + "?wait=5s")
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get(HeaderNode); got != owner {
		t.Fatalf("poll served by %q, want issuer %q", got, owner)
	}
	view := env[api.TicketView](t, resp, http.StatusOK)
	if view.State != "done" || view.Error != nil || view.Stages == nil {
		t.Fatalf("view = %+v", view)
	}

	// The SSE stream crosses the hop too.
	resp, err = http.Get(nodes[third].url + "/v1/tickets/" + sub.Ticket.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "event: done") {
		t.Fatalf("forwarded stream missing done event:\n%s", raw)
	}

	// The group itself is readable everywhere.
	if p, _ := getPlan(t, nodes[third].url, gid); p.ID != gid {
		t.Fatalf("plan after async create = %+v", p)
	}

	// An ID-less async create gets a node-scoped group ID, like the sync
	// surface.
	resp, err = http.Post(nodes["a"].url+"/v1/tickets", "application/json",
		strings.NewReader(`{"op":"create","source":0,"members":[3]}`))
	if err != nil {
		t.Fatal(err)
	}
	sub = env[api.TicketResponse](t, resp, http.StatusAccepted)
	if !strings.HasPrefix(sub.Ticket.Group, "a-g") {
		t.Fatalf("auto group ID = %q, want a-g... prefix", sub.Ticket.Group)
	}
}

// TestRetryable pins the retry predicate: idempotent methods always
// retry; everything else only on connection-stage (dial) failures,
// where the request provably never reached the peer.
func TestRetryable(t *testing.T) {
	get, _ := http.NewRequest(http.MethodGet, "http://x/", nil)
	post, _ := http.NewRequest(http.MethodPost, "http://x/", nil)
	dialErr := &net.OpError{Op: "dial", Err: errors.New("connection refused")}
	readErr := &net.OpError{Op: "read", Err: errors.New("connection reset")}

	cases := []struct {
		name string
		r    *http.Request
		err  error
		want bool
	}{
		{"get/read", get, readErr, true},
		{"get/eof", get, io.ErrUnexpectedEOF, true},
		{"post/dial", post, dialErr, true},
		{"post/dial-wrapped", post, &url.Error{Op: "Post", URL: "http://x/", Err: dialErr}, true},
		{"post/read", post, readErr, false},
		{"post/eof", post, io.ErrUnexpectedEOF, false},
	}
	for _, tc := range cases {
		if got := retryable(tc.r, tc.err); got != tc.want {
			t.Errorf("%s: retryable = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestForwardRetrySemantics proves the bugfix at the wire: a peer that
// accepts the request and then kills the connection sees a POST exactly
// once (no replay of a possibly-applied mutation), while a GET against
// the same failure is retried to the configured limit.
func TestForwardRetrySemantics(t *testing.T) {
	var hits atomic.Int32
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/cluster/node" {
			w.Header().Set("Content-Type", "application/json")
			io.WriteString(w, `{"data":{"id":"b","state":"up"},"error":null}`)
			return
		}
		hits.Add(1)
		hj, ok := w.(http.Hijacker)
		if !ok {
			t.Error("response writer is not a hijacker")
			return
		}
		conn, _, err := hj.Hijack()
		if err != nil {
			t.Errorf("hijack: %v", err)
			return
		}
		conn.Close() // request consumed, response never written
	}))
	defer stub.Close()

	set, err := shard.New(shard.Config{Shards: 2, Group: groupd.Config{N: 16}})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	apiSrv := api.NewServer(set, nil)
	aTS := httptest.NewUnstartedServer(http.NotFoundHandler())
	const retries = 2
	node, err := New(Config{
		Self:           "a",
		Peers:          map[string]string{"a": "http://" + aTS.Listener.Addr().String(), "b": stub.URL},
		Local:          set,
		Handler:        apiSrv,
		PollEvery:      25 * time.Millisecond,
		ForwardRetries: retries,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	aTS.Config.Handler = node
	aTS.Start()
	defer aTS.Close()
	base := "http://" + aTS.Listener.Addr().String()

	deadline := time.Now().Add(5 * time.Second)
	for node.Ready() != nil {
		if time.Now().After(deadline) {
			t.Fatalf("node never became ready: %v", node.Ready())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Find a group the stub peer owns, so requests at "a" forward.
	gid := ""
	for i := 0; i < 4096; i++ {
		id := fmt.Sprintf("retry-%04d", i)
		if node.Owner(id) == "b" {
			gid = id
			break
		}
	}
	if gid == "" {
		t.Fatal("ring never placed a probe group on the stub peer")
	}

	// Non-idempotent POST: one attempt, then the 502 surfaces.
	resp, err := http.Post(base+"/v1/groups/"+gid+"/join", "application/json", strings.NewReader(`{"dest":3}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("broken-peer POST = %d, want %d", resp.StatusCode, http.StatusBadGateway)
	}
	if n := hits.Load(); n != 1 {
		t.Fatalf("POST hit the peer %d times, want exactly 1 (mutations must not be replayed)", n)
	}

	// Idempotent GET: retried up to the limit against the same failure.
	hits.Store(0)
	resp, err = http.Get(base + "/v1/groups/" + gid + "/plan")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("broken-peer GET = %d, want %d", resp.StatusCode, http.StatusBadGateway)
	}
	if n := hits.Load(); n != retries+1 {
		t.Fatalf("GET hit the peer %d times, want %d (1 + %d retries)", n, retries+1, retries)
	}
}
