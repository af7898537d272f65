// Package cluster extends the consistent-hash shard ring across
// processes: N brsmnd nodes form a second ring above internal/shard's
// per-process one, so a group ID hashes first to an owning *node*, then
// (inside that node) to an owning *shard*. Three cooperating mechanisms
// make the fabric of the source paper serve traffic beyond one
// machine's cores:
//
//   - membership: nodes come from a static -peers list (id=addr pairs).
//     A background loop polls every peer's /v1/cluster/node endpoint and
//     tracks three states — up, down (consecutive poll failures), and
//     draining (deliberate removal). The placement ring spans every
//     non-draining node: a down node keeps its ring share, so its groups
//     produce fast 502s instead of silently re-homing (and flapping back)
//     — static membership re-homes groups only on deliberate drains.
//   - forwarding: any node accepts any /v1 request. Group-scoped
//     requests whose ring owner is another node are proxied to it by
//     forward.go's HTTP client (bounded retries, per-attempt timeout,
//     and an X-Brsmn-Hops guard so transient ring disagreement degrades
//     to local service instead of a forwarding loop).
//   - drain/migration: draining a node exports every group it holds in
//     the PR 6 snapshot vocabulary — generation and warm plan blob
//     included — installs each on its new ring owner via
//     POST /v1/cluster/migrate, and gen-guard-deletes the local copy, so
//     zero groups (and zero cached plans) are lost and the gaining node's
//     first plan request is a warm, byte-identical hit. The same sweep
//     runs whenever the membership view changes, which is how a node
//     (re)joining the ring pulls its share back: every holder pushes the
//     groups the newcomer now owns.
//
// A Node is an http.Handler wrapping the local api.Server; it is safe
// for concurrent use. Deployments without -peers never construct one
// and keep the single-process behavior bit for bit.
package cluster

import (
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"brsmn/internal/obs"
	"brsmn/internal/shard"
)

// Sentinel errors.
var (
	// ErrDraining reports an operation refused because the node is
	// already draining.
	ErrDraining = errors.New("cluster: node is draining")
	// ErrClosed reports a closed node.
	ErrClosed = errors.New("cluster: node closed")
)

// Config parameterizes a Node. The node ring's 64 virtual nodes per
// member (the shard ring's count), the down threshold (downAfter failed
// polls) and the migrate batch size (migrateBatch) are fixed.
type Config struct {
	// Self is this node's ID; it must appear in Peers.
	Self string
	// Peers maps node ID -> base URL ("http://host:port") for every
	// cluster member, this node included. All nodes must agree on it.
	Peers map[string]string
	// Local is the node's serving layer: group introspection for status,
	// and the export/install/gen-guarded-delete triple migrations are
	// built from.
	Local *shard.Set
	// Handler is the local API handler requests are served by when this
	// node owns them (or the hop guard forces local service).
	Handler http.Handler
	// PollEvery is the membership poll cadence (default 500ms).
	PollEvery time.Duration
	// ForwardTimeout bounds each proxied attempt (default 5s).
	ForwardTimeout time.Duration
	// ForwardRetries is how many additional attempts a failed proxied
	// request gets (default 2; only transport errors retry, and
	// non-idempotent verbs only when the request never left).
	ForwardRetries int
	// MaxHops caps forwarding chains; a request that has already been
	// forwarded MaxHops times is served locally (default 2: origin ->
	// believed owner -> actual owner after a migration).
	MaxHops int
	// Metrics, when non-nil, receives the cluster series of metrics.go.
	Metrics *obs.Registry
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

func (c *Config) applyDefaults() {
	if c.PollEvery <= 0 {
		c.PollEvery = 500 * time.Millisecond
	}
	if c.ForwardTimeout <= 0 {
		c.ForwardTimeout = 5 * time.Second
	}
	if c.ForwardRetries < 0 {
		c.ForwardRetries = 0
	} else if c.ForwardRetries == 0 {
		c.ForwardRetries = 2
	}
	if c.MaxHops <= 0 {
		c.MaxHops = 2
	}
}

// downAfter is how many consecutive poll failures mark a peer down.
const downAfter = 2

// peerState is a peer's observed membership state.
type peerState int32

const (
	// peerUnknown is the pre-first-poll state; the peer keeps its ring
	// share (optimistic: most boots see all peers up within one poll).
	peerUnknown peerState = iota
	peerUp
	peerDown
	peerDraining
)

// serving reports whether a node in this state keeps its placement-ring
// share. Down nodes do (fail fast, don't flap groups); draining don't.
func (s peerState) serving() bool { return s != peerDraining }

func (s peerState) String() string {
	switch s {
	case peerUp:
		return "up"
	case peerDown:
		return "down"
	case peerDraining:
		return "draining"
	}
	return "unknown"
}

// peer is one cluster member as seen from this node.
type peer struct {
	id  string
	url string

	state  atomic.Int32 // peerState
	fails  atomic.Int32 // consecutive poll failures
	groups atomic.Int64 // last reported group count
	epoch  atomic.Int64 // last reported epoch
}

func (p *peer) getState() peerState  { return peerState(p.state.Load()) }
func (p *peer) setState(s peerState) { p.state.Store(int32(s)) }
func (p *peer) serving() bool        { return p.getState().serving() }
func (p *peer) reachable() bool      { s := p.getState(); return s == peerUp || s == peerUnknown }

// Node is the cluster tier of one brsmnd process. Construct with New,
// release with Close (before the HTTP listener shuts down).
type Node struct {
	cfg   Config
	self  *peer
	peers []*peer // sorted by ID, self included
	byID  map[string]*peer

	client *http.Client
	// streamClient proxies ticket long-polls and SSE streams: no overall
	// timeout (the client's context bounds those requests), same
	// connection pool hygiene on Close.
	streamClient *http.Client

	// ringMu guards ring rebuilds; reads go through the atomic pointer
	// so the forwarding hot path never takes a lock.
	ringMu sync.Mutex
	ring   atomic.Pointer[nodeRing]

	draining atomic.Bool
	synced   atomic.Bool // first membership poll round completed
	closed   atomic.Bool

	sweepMu sync.Mutex     // single-flight rebalance sweeps
	sweepWG sync.WaitGroup // in-flight background sweeps, drained by Close

	// Lifetime counters, kept on the Node (not the registry) so the
	// /v1/cluster view reports them with or without metrics wired.
	nForwarded   atomic.Uint64
	nMigratedOut atomic.Uint64
	nMigratedIn  atomic.Uint64

	met *clusterMetrics // nil without a registry

	quit chan struct{}
	done chan struct{}
}

// New builds the cluster node and starts its membership loop.
func New(cfg Config) (*Node, error) {
	cfg.applyDefaults()
	if cfg.Self == "" {
		return nil, errors.New("cluster: empty self node ID")
	}
	if cfg.Local == nil || cfg.Handler == nil {
		return nil, errors.New("cluster: Local backend and Handler are required")
	}
	if _, ok := cfg.Peers[cfg.Self]; !ok {
		return nil, fmt.Errorf("cluster: self %q not in peers", cfg.Self)
	}
	n := &Node{
		cfg:  cfg,
		byID: make(map[string]*peer, len(cfg.Peers)),
		client: &http.Client{
			Timeout: cfg.ForwardTimeout,
		},
		streamClient: &http.Client{},
		quit:         make(chan struct{}),
		done:         make(chan struct{}),
	}
	ids := make([]string, 0, len(cfg.Peers))
	for id := range cfg.Peers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		p := &peer{id: id, url: strings.TrimRight(cfg.Peers[id], "/")}
		if id == cfg.Self {
			p.setState(peerUp)
			n.self = p
		}
		n.peers = append(n.peers, p)
		n.byID[id] = p
	}
	n.rebuildRing()
	if cfg.Metrics != nil {
		n.met = n.registerMetrics(cfg.Metrics)
	}
	go n.loop()
	return n, nil
}

// Close stops the membership loop, waits out any in-flight rebalance
// sweep, and releases the forwarding client's idle connections. It must
// run before the serving layer and the HTTP listener close so no
// membership poll or migration push races the teardown. Idempotent.
func (n *Node) Close() error {
	if n.closed.Swap(true) {
		return nil
	}
	close(n.quit)
	<-n.done
	n.sweepWG.Wait()
	n.client.CloseIdleConnections()
	n.streamClient.CloseIdleConnections()
	return nil
}

// goSweep runs a sweep in the background, tracked so Close can wait it
// out. A sweep that starts after Close exits immediately on the closed
// check.
func (n *Node) goSweep(reason string) {
	n.sweepWG.Add(1)
	go func() {
		defer n.sweepWG.Done()
		if err := n.sweep(reason); err != nil {
			n.logf("cluster: sweep (%s): %v", reason, err)
		}
	}()
}

// Self returns this node's ID.
func (n *Node) Self() string { return n.cfg.Self }

// Ready implements the readiness contract (api.WithReadiness): a node
// is ready once its first membership poll round has completed and while
// it is not draining.
func (n *Node) Ready() error {
	if n.closed.Load() {
		return ErrClosed
	}
	if n.draining.Load() {
		return ErrDraining
	}
	if !n.synced.Load() {
		return errors.New("cluster: membership sync in progress")
	}
	return nil
}

// logf routes operational logging through the configured sink.
func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf(format, args...)
	}
}

// loop is the membership goroutine: poll every peer, refresh the ring
// on view changes, and kick a rebalance sweep when the change matters.
// The first round runs immediately so readiness doesn't wait a full
// poll interval.
func (n *Node) loop() {
	defer close(n.done)
	t := time.NewTicker(n.cfg.PollEvery)
	defer t.Stop()
	n.pollRound()
	n.synced.Store(true)
	for {
		select {
		case <-n.quit:
			return
		case <-t.C:
			if changed := n.pollRound(); changed {
				// Serving-view changes re-home groups (a peer started
				// draining, or a drained node came back); sweep off the
				// loop goroutine so polling cadence holds.
				n.goSweep("membership change")
			}
		}
	}
}

// pollRound refreshes every peer's state, returning whether the
// serving view (the set of ring members) changed.
func (n *Node) pollRound() bool {
	changed := false
	var wg sync.WaitGroup
	results := make([]peerState, len(n.peers))
	for i, p := range n.peers {
		if p == n.self {
			// Self state is authoritative locally and set only by
			// Drain: writing back a state read before a concurrent
			// Drain would put a draining node back on its own ring.
			p.groups.Store(int64(n.cfg.Local.Count()))
			p.epoch.Store(n.cfg.Local.Epoch())
			continue
		}
		wg.Add(1)
		go func(i int, p *peer) {
			defer wg.Done()
			results[i] = n.pollPeer(p)
		}(i, p)
	}
	wg.Wait()
	for i, p := range n.peers {
		if p == n.self {
			continue
		}
		old := p.getState()
		if results[i] != old {
			p.setState(results[i])
			if old.serving() != results[i].serving() {
				changed = true
			}
			if old != peerUnknown || results[i] != peerUp {
				n.logf("cluster: node %s %s -> %s", p.id, old, results[i])
			}
		}
	}
	if changed {
		n.rebuildRing()
		if n.met != nil {
			n.met.viewChanges.Inc()
		}
	}
	return changed
}

// pollPeer asks one peer for its self-reported state.
func (n *Node) pollPeer(p *peer) peerState {
	st, err := n.fetchNodeStatus(p)
	if err != nil {
		fails := p.fails.Add(1)
		if fails >= downAfter {
			return peerDown
		}
		// Below the threshold: keep the previous state (hysteresis).
		return p.getState()
	}
	p.fails.Store(0)
	p.groups.Store(st.Groups)
	p.epoch.Store(st.Epoch)
	if st.State == peerDraining.String() {
		return peerDraining
	}
	return peerUp
}

// serving returns the peers currently on the placement ring, in ID
// order.
func (n *Node) servingPeers() []*peer {
	out := make([]*peer, 0, len(n.peers))
	for _, p := range n.peers {
		if p.serving() {
			out = append(out, p)
		}
	}
	return out
}

// NodeStatus is one node's externally visible membership state — the
// /v1/cluster/node reply and one row of the /v1/cluster view.
type NodeStatus struct {
	ID     string `json:"id"`
	URL    string `json:"url,omitempty"`
	State  string `json:"state"`
	Groups int64  `json:"groups"`
	Epoch  int64  `json:"epoch"`
	Self   bool   `json:"self,omitempty"`
}

// Status is the whole cluster as seen from this node — the /v1/cluster
// reply.
type Status struct {
	Self    string       `json:"self"`
	Nodes   []NodeStatus `json:"nodes"`
	Serving int          `json:"serving"`
	// Groups sums the last-reported group counts across nodes — the
	// zero-loss invariant CI checks across a drain.
	Groups int64 `json:"groups"`
	// Forwarded/Migrated are this node's lifetime counters.
	Forwarded   uint64 `json:"forwarded"`
	MigratedOut uint64 `json:"migratedOut"`
	MigratedIn  uint64 `json:"migratedIn"`
}

// selfStatus is this node's own row.
func (n *Node) selfStatus() NodeStatus {
	state := peerUp.String()
	if n.draining.Load() {
		state = peerDraining.String()
	}
	return NodeStatus{
		ID:     n.cfg.Self,
		State:  state,
		Groups: int64(n.cfg.Local.Count()),
		Epoch:  n.cfg.Local.Epoch(),
		Self:   true,
	}
}

// status renders the full membership view.
func (n *Node) status() Status {
	st := Status{Self: n.cfg.Self}
	for _, p := range n.peers {
		row := NodeStatus{ID: p.id, URL: p.url, State: p.getState().String(),
			Groups: p.groups.Load(), Epoch: p.epoch.Load()}
		if p == n.self {
			row = n.selfStatus()
			row.URL = p.url
		}
		if row.State == peerUp.String() || row.State == peerDraining.String() {
			st.Groups += row.Groups
		}
		if p.serving() {
			st.Serving++
		}
		st.Nodes = append(st.Nodes, row)
	}
	st.Forwarded = n.nForwarded.Load()
	st.MigratedOut = n.nMigratedOut.Load()
	st.MigratedIn = n.nMigratedIn.Load()
	return st
}
