package cluster

// The forwarding tier: Node is an http.Handler in front of the local
// api.Server. Group-scoped /v1 requests whose ring owner is another
// node are proxied verbatim — body, status, and envelope relayed
// byte-for-byte — so a client can point at any node and observe the
// same API. Everything else (planner endpoints, faults, shards,
// metrics, health) stays local: those are per-node or stateless.
//
// Loop safety: each proxied request carries X-Brsmn-Hops. A node that
// receives a request at the hop limit serves it locally even if the
// ring disagrees — during the one-poll window where two nodes hold
// different views, a request degrades to a 404/local answer instead of
// bouncing until timeout. Every response carries X-Brsmn-Node (the node
// that finally served it) and, when proxied, X-Brsmn-Forwarded with the
// hop path — which is how brsmnload measures forwarding overhead.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"brsmn/internal/api"
)

// Forwarding headers.
const (
	// HeaderHops counts forwarding hops a request has taken.
	HeaderHops = "X-Brsmn-Hops"
	// HeaderNode names the node that served the response.
	HeaderNode = "X-Brsmn-Node"
	// HeaderForwarded lists the forwarding path ("a>b") on proxied
	// responses; absent when served first-touch.
	HeaderForwarded = "X-Brsmn-Forwarded"
)

// maxForwardBody bounds request bodies the forwarder will buffer for
// retransmission. Group mutations are small; 1 MiB is generous.
const maxForwardBody = 1 << 20

// autoID is this node's counter for cluster-unique auto-assigned group
// IDs.
var autoID atomic.Uint64

// ServeHTTP implements the cluster tier: route group-scoped requests to
// their ring owner, serve everything else locally.
func (n *Node) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasPrefix(r.URL.Path, "/v1/cluster") {
		n.serveCluster(w, r)
		return
	}
	if strings.HasPrefix(r.URL.Path, "/v1/tickets") {
		n.serveTickets(w, r)
		return
	}
	id, ok := groupIDFromPath(r.URL.Path)
	if !ok {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/groups" {
			n.serveCreate(w, r)
			return
		}
		n.serveLocal(w, r)
		return
	}
	n.dispatch(w, r, id)
}

// serveLocal hands the request to the wrapped api handler, stamping the
// serving node.
func (n *Node) serveLocal(w http.ResponseWriter, r *http.Request) {
	w.Header().Set(HeaderNode, n.cfg.Self)
	n.cfg.Handler.ServeHTTP(w, r)
}

// dispatch serves or forwards one group-scoped request.
func (n *Node) dispatch(w http.ResponseWriter, r *http.Request, id string) {
	owner, _ := n.ring.Load().Owner(id)
	if owner == nil || owner == n.self {
		n.serveLocal(w, r)
		return
	}
	// A draining node has left the ring, but until its sweep finishes it
	// still holds (and must keep serving) the groups that haven't moved
	// yet; the gen-guarded migration order guarantees a group exists on
	// its new owner before it disappears here, so local-first never
	// shadows the migrated copy with a stale one.
	if n.draining.Load() {
		if _, err := n.cfg.Local.Get(id); err == nil {
			n.serveLocal(w, r)
			return
		}
	}
	hops := hopCount(r)
	if hops >= n.cfg.MaxHops {
		if n.met != nil {
			n.met.hopLimited.Inc()
		}
		n.serveLocal(w, r)
		return
	}
	n.forward(w, r, owner, hops)
}

// serveCreate handles POST /v1/groups cluster-wide: decode enough of
// the body to learn the group ID (assigning a node-scoped unique one if
// absent — concurrent creates on different nodes must not collide), then
// dispatch to the ring owner like any other group-scoped request.
func (n *Node) serveCreate(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxForwardBody+1))
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, "reading request body: "+err.Error())
		return
	}
	if len(body) > maxForwardBody {
		api.WriteError(w, http.StatusBadRequest, api.CodeBadRequest,
			fmt.Sprintf("request body exceeds %d bytes", maxForwardBody))
		return
	}
	var req struct {
		ID string `json:"id"`
	}
	if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			// Let the local handler produce the canonical 400.
			r.Body = io.NopCloser(bytes.NewReader(body))
			n.serveLocal(w, r)
			return
		}
	}
	if req.ID == "" {
		// Splice the assigned ID into the raw body without re-encoding
		// the rest of the request.
		req.ID = fmt.Sprintf("%s-g%08d", n.cfg.Self, autoID.Add(1))
		body, err = spliceID(body, req.ID)
		if err != nil {
			api.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, err.Error())
			return
		}
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	r.ContentLength = int64(len(body))
	n.dispatch(w, r, req.ID)
}

// spliceID re-serializes a create body with the given ID set.
func spliceID(body []byte, id string) ([]byte, error) { return spliceField(body, "id", id) }

// spliceField re-serializes a JSON-object body with one string field
// set, leaving every other field byte-identical.
func spliceField(body []byte, key, val string) ([]byte, error) {
	m := map[string]json.RawMessage{}
	if len(body) > 0 {
		if err := json.Unmarshal(body, &m); err != nil {
			return nil, fmt.Errorf("request body must be a JSON object: %v", err)
		}
	}
	raw, err := json.Marshal(val)
	if err != nil {
		return nil, err
	}
	m[key] = raw
	return json.Marshal(m)
}

// serveTickets routes the async-admission surface. Submissions dispatch
// to the target group's ring owner (so the issued ticket lives where
// the work executes); polls and event streams route to the node named
// in the ticket ID's "@<node>" suffix; the stats listing is local.
func (n *Node) serveTickets(w http.ResponseWriter, r *http.Request) {
	rest, found := strings.CutPrefix(r.URL.Path, "/v1/tickets/")
	if !found || rest == "" {
		if r.Method == http.MethodPost {
			n.serveTicketSubmit(w, r)
			return
		}
		n.serveLocal(w, r)
		return
	}
	tid := strings.TrimSuffix(rest, "/events")
	n.dispatchTicket(w, r, tid)
}

// serveTicketSubmit handles POST /v1/tickets cluster-wide, mirroring
// serveCreate: learn the target group from the body (assigning a
// node-scoped unique ID to an ID-less create), then dispatch to the
// ring owner.
func (n *Node) serveTicketSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxForwardBody+1))
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, "reading request body: "+err.Error())
		return
	}
	if len(body) > maxForwardBody {
		api.WriteError(w, http.StatusBadRequest, api.CodeBadRequest,
			fmt.Sprintf("request body exceeds %d bytes", maxForwardBody))
		return
	}
	var req struct {
		Op    string `json:"op"`
		Group string `json:"group"`
	}
	if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			// Let the local handler produce the canonical 400.
			r.Body = io.NopCloser(bytes.NewReader(body))
			n.serveLocal(w, r)
			return
		}
	}
	if req.Group == "" && req.Op == "create" {
		req.Group = fmt.Sprintf("%s-g%08d", n.cfg.Self, autoID.Add(1))
		body, err = spliceField(body, "group", req.Group)
		if err != nil {
			api.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, err.Error())
			return
		}
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	r.ContentLength = int64(len(body))
	n.dispatch(w, r, req.Group)
}

// ticketNode extracts the issuing node from a ticket ID's "@<node>"
// suffix; empty for single-node IDs.
func ticketNode(tid string) string {
	if i := strings.IndexByte(tid, '@'); i >= 0 {
		return tid[i+1:]
	}
	return ""
}

// dispatchTicket serves or forwards one ticket poll/stream. Unlike
// group dispatch, the target is the issuing node (tickets live in the
// issuer's registry), not a ring owner — an unknown or absent suffix
// serves locally, where the canonical 404 comes from.
func (n *Node) dispatchTicket(w http.ResponseWriter, r *http.Request, tid string) {
	node := ticketNode(tid)
	if node == "" || node == n.cfg.Self {
		n.serveLocal(w, r)
		return
	}
	p, ok := n.byID[node]
	if !ok {
		n.serveLocal(w, r)
		return
	}
	hops := hopCount(r)
	if hops >= n.cfg.MaxHops {
		if n.met != nil {
			n.met.hopLimited.Inc()
		}
		n.serveLocal(w, r)
		return
	}
	n.forward(w, r, p, hops)
}

// forward proxies the request to the owning peer, relaying the response
// verbatim. A down-marked peer fails fast. Failed attempts retry up to
// ForwardRetries times, but only when re-sending cannot re-apply the
// operation (see retryable) — a create or join whose response was lost
// mid-flight must NOT be replayed, or the remote side applies it twice
// and the client sees a spurious conflict.
func (n *Node) forward(w http.ResponseWriter, r *http.Request, owner *peer, hops int) {
	start := time.Now()
	if !owner.reachable() {
		n.forwardFailed(w, owner, fmt.Errorf("owner %s is %s", owner.id, owner.getState()))
		return
	}
	var body []byte
	if r.Body != nil {
		var err error
		body, err = io.ReadAll(io.LimitReader(r.Body, maxForwardBody+1))
		if err != nil {
			api.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, "reading request body: "+err.Error())
			return
		}
		if len(body) > maxForwardBody {
			api.WriteError(w, http.StatusBadRequest, api.CodeBadRequest,
				fmt.Sprintf("request body exceeds %d bytes", maxForwardBody))
			return
		}
	}
	client := n.client
	if streamingRequest(r) {
		// Long-polls and SSE legitimately outlive ForwardTimeout; the
		// client's own context bounds them instead.
		client = n.streamClient
	}
	url := owner.url + r.URL.RequestURI()
	var resp *http.Response
	var err error
	for attempt := 0; attempt <= n.cfg.ForwardRetries; attempt++ {
		var req *http.Request
		req, err = http.NewRequestWithContext(r.Context(), r.Method, url, bytes.NewReader(body))
		if err != nil {
			break
		}
		copyProxyHeaders(req.Header, r.Header)
		req.Header.Set(HeaderHops, strconv.Itoa(hops+1))
		resp, err = client.Do(req)
		if err == nil {
			break
		}
		if r.Context().Err() != nil {
			break // the client gave up; don't retry into the void
		}
		if !retryable(r, err) {
			break
		}
		if n.met != nil {
			n.met.forwardRetries.Inc()
		}
	}
	if err != nil {
		n.forwardFailed(w, owner, err)
		return
	}
	defer resp.Body.Close()

	h := w.Header()
	for k, vv := range resp.Header {
		for _, v := range vv {
			h.Add(k, v)
		}
	}
	// Extend (or start) the forwarding path for overhead accounting.
	path := n.cfg.Self
	if prior := resp.Header.Get(HeaderForwarded); prior != "" {
		h.Del(HeaderForwarded)
		path = n.cfg.Self + ">" + prior
	} else if via := resp.Header.Get(HeaderNode); via != "" {
		path = n.cfg.Self + ">" + via
	}
	h.Set(HeaderForwarded, path)
	w.WriteHeader(resp.StatusCode)
	if strings.HasPrefix(resp.Header.Get("Content-Type"), "text/event-stream") {
		flushCopy(w, resp.Body)
	} else {
		_, _ = io.Copy(w, resp.Body)
	}
	n.nForwarded.Add(1)
	if n.met != nil {
		n.met.forwardSeconds.Observe(time.Since(start).Seconds())
	}
}

// retryable reports whether a failed proxied attempt may safely be
// re-sent: idempotent methods always; anything else only when the
// failure happened at the connection stage (dial), i.e. the request
// never reached the peer. A mid-response transport error on a POST
// means the operation may already have been applied — surface the 502
// and let the client decide.
func retryable(r *http.Request, err error) bool {
	if r.Method == http.MethodGet || r.Method == http.MethodHead {
		return true
	}
	var op *net.OpError
	return errors.As(err, &op) && op.Op == "dial"
}

// streamingRequest reports whether the proxied request may legitimately
// outlive ForwardTimeout — ticket long-polls and SSE event streams.
func streamingRequest(r *http.Request) bool {
	return strings.HasPrefix(r.URL.Path, "/v1/tickets/")
}

// flushCopy relays an event stream, flushing after every read so
// events cross the hop as they happen instead of when the buffer fills.
func flushCopy(w http.ResponseWriter, rd io.Reader) {
	rc := http.NewResponseController(w)
	buf := make([]byte, 4096)
	for {
		k, err := rd.Read(buf)
		if k > 0 {
			if _, werr := w.Write(buf[:k]); werr != nil {
				return
			}
			_ = rc.Flush()
		}
		if err != nil {
			return
		}
	}
}

// forwardFailed reports an unforwardable request: 502 in the standard
// envelope, naming the owner so operators can see which node is out.
func (n *Node) forwardFailed(w http.ResponseWriter, owner *peer, err error) {
	if n.met != nil {
		n.met.forwardErrors.Inc()
	}
	w.Header().Set(HeaderNode, n.cfg.Self)
	api.WriteError(w, http.StatusBadGateway, api.CodeUnavailable,
		fmt.Sprintf("forwarding to owner %s: %v", owner.id, err))
}

// copyProxyHeaders carries request headers across the hop, minus
// hop-by-hop ones the client owns.
func copyProxyHeaders(dst, src http.Header) {
	for k, vv := range src {
		switch http.CanonicalHeaderKey(k) {
		case "Connection", "Keep-Alive", "Te", "Trailer", "Transfer-Encoding", "Upgrade", "Content-Length", "Host":
			continue
		}
		for _, v := range vv {
			dst.Add(k, v)
		}
	}
}

// hopCount reads the request's forwarding hop counter.
func hopCount(r *http.Request) int {
	h, err := strconv.Atoi(r.Header.Get(HeaderHops))
	if err != nil || h < 0 {
		return 0
	}
	return h
}

// groupIDFromPath extracts the group ID from group-scoped /v1 paths:
// /v1/groups/{id}, /v1/groups/{id}/join, /leave, /plan. The collection
// endpoints (/v1/groups itself) and everything else return ok=false.
func groupIDFromPath(path string) (string, bool) {
	rest, found := strings.CutPrefix(path, "/v1/groups/")
	if !found || rest == "" {
		return "", false
	}
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		id, action := rest[:i], rest[i+1:]
		switch action {
		case "join", "leave", "plan":
			return id, id != ""
		}
		return "", false
	}
	return rest, true
}
