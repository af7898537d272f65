package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"brsmn/internal/mcast"
	"brsmn/internal/obs"
	"brsmn/internal/rbn"
	"brsmn/internal/shuffle"
	"brsmn/internal/swbox"
	"brsmn/internal/tag"
)

// treeChunkWords is the minimum tag-tree arena growth step (4 KiB), so
// sparse workloads do not grow the arena word by word.
const treeChunkWords = 512

// pcell is a connection branch in flight: the source input and the node
// of the source's packed tag tree the branch currently sits at. The node
// IS the routing state — its 2-bit lane holds the branch's tag at the
// current level and its two children are the next level's tags — so a
// cell advances by index arithmetic and carries no tag storage of its
// own. This replaces the per-cell routing-tag sequence (and the
// re-dealing pass that dominated warm routes) with one int32.
type pcell struct {
	src  int32 // source input; -1 for an idle wire
	node int32 // heap index into the source's tag tree
}

func (c pcell) isIdle() bool { return c.src < 0 }

// splitPCell realizes an α-split in a broadcast switch: the upper output
// continues into the 0-subtree, the lower into the 1-subtree.
func splitPCell(c pcell) (pcell, pcell) {
	up, low := c, c
	up.node = 2 * c.node
	low.node = 2*c.node + 1
	return up, low
}

// Planner is a reusable, arena-backed BRSMN routing pipeline: all
// per-route state — the packed per-input tag trees, the per-level cell
// vectors, every reverse-banyan plan, the final-column settings and the
// delivery vector — is allocated once at New and recycled, so a warm
// Planner routes an assignment with zero steady-state allocations.
//
// Each active input's routing tags are stored as a packed tag tree: a
// heap-indexed vector of 2-bit lanes (lane value == the tag.Value
// constant) bump-allocated from one shared word arena. A cell's tag at
// recursion level l is the lane of its current tree node, so the planner
// never materializes routing-tag sequences at all.
//
// The Result returned by Route aliases the planner's storage and is
// valid only until the next Route call; callers that retain results
// (or route through a shared pool) detach them with Result.Clone.
//
// The recursion routes the two half-size sub-BRSMNs of each level one
// after the other on the caller's goroutine. A Planner is not safe for
// concurrent use; use a PlannerPool to share one network across
// goroutines.
type Planner struct {
	n  int
	m  int // log2(n)
	tw int // uint64 words per packed tag tree: (n-1)/32 + 1

	owner []int // fused validation + verification buffer

	// Packed tag-tree arena. treeOff[i] is input i's word offset into
	// treeWords, -1 when idle. Offsets survive arena growth (the slice
	// is copied, not chunked), so laneAt stays a two-instruction load.
	treeWords []uint64
	treeOff   []int32
	treeUsed  int
	bm        []uint64 // shared leaf-bitmap scratch for buildTree

	// payloads is the caller's payload slice of the latest route,
	// resolved per delivery at the final column.
	payloads []any

	// routed marks that the planner holds a complete, verified route
	// whose retained levels and trees RoutePatch may patch in place.
	routed bool

	// levels[l] holds the cell vector entering recursion level l+1:
	// levels[0] is the network input; a level-l node at output base b of
	// size s reads levels[l-1][b:b+s] and writes its children's cells to
	// levels[l][b:b+s]. Sibling nodes write disjoint ranges, so
	// RoutePatch can re-enter the recursion at any node whose entry
	// cells it retained.
	levels [][]pcell

	// plans holds one slot per BSN instance in DFS preorder — the exact
	// order the sequential recursion appends them — with both RBN plans
	// preallocated. The slot of a node's upper child is slot+1, of its
	// lower child slot+size/4 (one plus the size/4-1 slots of the upper
	// subtree).
	plans []LevelPlan

	router *pRouter // BSN working buffers, shared by every node

	final      []swbox.Setting
	deliveries []Delivery
	res        Result

	// tr, when non-nil, is the trace the current route accumulates stage
	// durations into (see RouteTraced in obs.go). The untraced hot path
	// pays one nil check per recursion node for it.
	tr *obs.RouteTrace
}

// NewPlanner builds a planner for an n x n BRSMN (n a power of two,
// n >= 2). The trailing rbn.Engine is accepted and ignored; see its
// doc for the one caller that still passes it.
func NewPlanner(n int, _ ...rbn.Engine) (*Planner, error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("core: network size %d is not a power of two >= 2", n)
	}
	m := shuffle.Log2(n)
	p := &Planner{
		n:          n,
		m:          m,
		tw:         (n-1)>>5 + 1,
		owner:      make([]int, n),
		treeOff:    make([]int32, n),
		bm:         make([]uint64, (n+63)>>6),
		levels:     make([][]pcell, m),
		final:      make([]swbox.Setting, n/2),
		deliveries: make([]Delivery, n),
		router:     newPRouter(n),
	}
	for l := range p.levels {
		p.levels[l] = make([]pcell, n)
	}
	slots := n/2 - 1 // BSN instances: one per sub-BRSMN of size >= 4
	p.plans = make([]LevelPlan, slots)
	p.initSlots(1, 0, n, 0)
	return p, nil
}

// initSlots lays the static part of every plan slot (level, base, size
// and the two preallocated RBN plans) in DFS preorder.
func (p *Planner) initSlots(level, base, size, slot int) {
	if size == 2 {
		return
	}
	p.plans[slot] = LevelPlan{
		Level: level, Base: base, Size: size,
		Scatter: rbn.NewPlan(size), Quasi: rbn.NewPlan(size),
	}
	p.initSlots(level+1, base, size/2, slot+1)
	p.initSlots(level+1, base+size/2, size/2, slot+size/4)
}

// N returns the network size.
func (p *Planner) N() int { return p.n }

// laneAt reads the 2-bit tag lane of the given tree node.
func (p *Planner) laneAt(off int32, node int) tag.Value {
	return tag.Value(p.treeWords[int(off)+node>>5] >> (2 * (uint(node) & 31)) & 3)
}

// setLane overwrites the 2-bit tag lane of the given tree node.
func (p *Planner) setLane(off int32, node int, v tag.Value) {
	w := &p.treeWords[int(off)+node>>5]
	sh := 2 * (uint(node) & 31)
	*w = *w&^(3<<sh) | uint64(v)<<sh
}

// allocTree bump-allocates one tree's worth of arena words and returns
// its offset. Growth copies the backing slice, so earlier offsets stay
// valid.
func (p *Planner) allocTree() int32 {
	off := p.treeUsed
	if need := off + p.tw; need > len(p.treeWords) {
		newLen := 2 * len(p.treeWords)
		if newLen < need {
			newLen = need
		}
		if newLen < treeChunkWords {
			newLen = treeChunkWords
		}
		grown := make([]uint64, newLen)
		copy(grown, p.treeWords[:off])
		p.treeWords = grown
	}
	p.treeUsed = off + p.tw
	return int32(off)
}

// tagWordOf turns 64 leaf-occupancy bits into 32 two-bit node lanes:
// each (even, odd) bit pair — left subtree nonempty, right subtree
// nonempty — maps to V0 (1,0), V1 (0,1), Alpha (1,1) or Eps (0,0),
// numerically the tag.Value constants.
func tagWordOf(c uint64) uint64 {
	const even = 0x5555555555555555
	ce := c & even
	co := (c >> 1) & even
	return (^(ce^co)&even)<<1 | ^ce&even
}

// compactEven gathers the 32 even-position bits of x into the low half.
func compactEven(x uint64) uint64 {
	x &= 0x5555555555555555
	x = (x | x>>1) & 0x3333333333333333
	x = (x | x>>2) & 0x0F0F0F0F0F0F0F0F
	x = (x | x>>4) & 0x00FF00FF00FF00FF
	x = (x | x>>8) & 0x0000FFFF0000FFFF
	x = (x | x>>16) & 0x00000000FFFFFFFF
	return x
}

// buildTree packs the routing-tag tree for destination set ds into tw
// (p.tw words): a bottom-up word-parallel construction that derives each
// level's node lanes from the leaf-occupancy bitmap, then compacts the
// bitmap by pairwise OR for the level above — O(n/64 + log n) word
// operations in place of the O(n) byte-tree walk of mcast.BuildTagTree.
func (p *Planner) buildTree(tw []uint64, ds []int) {
	D := p.bm
	for w := range D {
		D[w] = 0
	}
	for _, d := range ds {
		D[d>>6] |= 1 << (uint(d) & 63)
	}
	tw[0] = 0
	width := p.n // bitmap bits still live
	for nodes := p.n / 2; nodes >= 1; nodes >>= 1 {
		if nodes >= 32 {
			// This level owns whole words: nodes [nodes, 2*nodes) sit
			// at words [nodes/32, nodes/16).
			base := nodes >> 5
			for w := 0; w < width>>6; w++ {
				tw[base+w] = tagWordOf(D[w])
			}
		} else {
			// The level's lanes live inside word 0 at lane positions
			// nodes..2*nodes-1. tagWordOf reads the unused high (0,0)
			// pairs as ε lanes, so mask before merging.
			t := tagWordOf(D[0]) & (1<<(2*uint(nodes)) - 1)
			tw[0] |= t << (2 * uint(nodes))
		}
		if cw := width >> 6; cw >= 2 {
			for pw := 0; pw < cw/2; pw++ {
				D[pw] = compactEven(D[2*pw]|D[2*pw]>>1) |
					compactEven(D[2*pw+1]|D[2*pw+1]>>1)<<32
			}
		} else {
			D[0] = compactEven(D[0] | D[0]>>1)
		}
		width >>= 1
	}
}

// Route realizes a multicast assignment. The returned Result aliases
// the planner's recycled storage — valid until the next Route call.
func (p *Planner) Route(a mcast.Assignment) (*Result, error) {
	return p.RouteWithPayloads(a, nil)
}

// RouteWithPayloads is Route with a payload attached to each input's
// connection. payloads may be nil for payload-free routing. The planner
// keeps a reference to payloads for delivery resolution until the next
// route.
func (p *Planner) RouteWithPayloads(a mcast.Assignment, payloads []any) (*Result, error) {
	p.routed = false
	if payloads != nil && len(payloads) != p.n {
		return nil, fmt.Errorf("core: %d payloads for %d inputs", len(payloads), p.n)
	}
	if a.N != p.n {
		return nil, fmt.Errorf("core: assignment for %d inputs on a %d x %d network", a.N, p.n, p.n)
	}
	if err := a.OwnerInto(p.owner); err != nil {
		return nil, err
	}
	p.payloads = payloads

	var t0 time.Time
	if p.tr != nil {
		t0 = time.Now()
	}
	p.treeUsed = 0
	in := p.levels[0]
	for i := range in {
		ds := a.Dests[i]
		if len(ds) == 0 {
			if p.tr != nil {
				p.tr.IdleInputs++
			}
			p.treeOff[i] = -1
			in[i] = pcell{src: -1}
			continue
		}
		if p.tr != nil {
			p.tr.Fanout += len(ds)
		}
		off := p.allocTree()
		p.treeOff[i] = off
		p.buildTree(p.treeWords[off:int(off)+p.tw], ds)
		in[i] = pcell{src: int32(i), node: 1}
	}
	if tr := p.tr; tr != nil {
		tr.AddStage("tree-build", time.Since(t0))
	}

	if err := p.routeRec(1, 0, p.n, 0); err != nil {
		return nil, err
	}
	p.res = Result{N: p.n, Deliveries: p.deliveries, Plans: p.plans, Final: p.final}
	if err := verifyOwner(p.owner, p.deliveries); err != nil {
		return nil, fmt.Errorf("core: routed configuration failed verification: %w", err)
	}
	p.routed = true
	return &p.res, nil
}

// routeRec routes the sub-BRSMN at the given level covering network
// outputs [base, base+size), filling plan slot `slot` and recursing
// into its upper, then its lower half.
func (p *Planner) routeRec(level, base, size, slot int) error {
	if size == 2 {
		return p.deliver(level, base)
	}
	lp := &p.plans[slot]
	cells := p.levels[level-1][base : base+size]
	out := p.levels[level][base : base+size]
	if err := p.router.route(p, level, cells, out, lp); err != nil {
		return fmt.Errorf("core: level %d BSN at output base %d: %w", level, base, err)
	}
	half := size / 2
	if err := p.routeRec(level+1, base, half, slot+1); err != nil {
		return err
	}
	return p.routeRec(level+1, base+half, half, slot+size/4)
}

// pRouter is a reusable binary-splitting-network router over pcells: the
// same two-pass scatter + quasisort routing as bsn.Route, but into
// preallocated plans and buffers, with both passes applied in place on
// the planner's next level. Cells carry tree nodes instead of tag
// sequences, so the entry tags are lane loads and the level advance
// folds into the scatter pass itself — χ cells step to their child node
// before the permutation is applied and α cells step during the
// broadcast split, eliminating the separate sequence-advance sweep
// entirely.
type pRouter struct {
	tags    []tag.Value
	midTags []tag.Value
	divided []tag.Value
	sc      *rbn.Scratch
}

func newPRouter(n int) *pRouter {
	return &pRouter{
		tags:    make([]tag.Value, n),
		midTags: make([]tag.Value, n),
		divided: make([]tag.Value, n),
		sc:      rbn.NewScratch(n),
	}
}

// route drives cells (entering tree level `level`) through one BSN,
// writing the scatter and quasisort settings into lp and the output
// cells, every one advanced to tree level level+1, into out (len(cells)
// long, disjoint from cells).
func (r *pRouter) route(p *Planner, level int, cells, out []pcell, lp *LevelPlan) error {
	n := len(cells)
	tags := r.tags[:n]
	tr := p.tr
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	// Read the entry tags, and fill out with the scatter's working copy
	// of the cells: every χ cell pre-advances to its child node (the
	// retained input cells stay untouched for RoutePatch re-entry); α
	// cells advance inside splitPCell. The lanes are 2-bit tag values,
	// so the entry counts of equations (1)–(3) index a small array.
	var cnt [4]int
	for i, c := range cells {
		v := tag.Eps
		if !c.isIdle() {
			v = p.laneAt(p.treeOff[c.src], int(c.node))
			switch v {
			case tag.V0:
				c.node = 2 * c.node
			case tag.V1:
				c.node = 2*c.node + 1
			}
		}
		tags[i] = v
		out[i] = c
		cnt[v&3]++
	}
	in := tag.Counts{N0: cnt[tag.V0], N1: cnt[tag.V1], NAlpha: cnt[tag.Alpha], NEps: cnt[tag.Eps]}
	if err := in.CheckBSNInput(n); err != nil {
		return err
	}

	// Pass 1: scatter — eliminate αs.
	if err := rbn.ScatterPlanInto(lp.Scatter, tags, 0, r.sc); err != nil {
		return err
	}
	if _, err := rbn.ApplyScratch(lp.Scatter, out, out, splitPCell); err != nil {
		return err
	}
	// After the scatter every live cell sits at tree level level+1, so
	// its quasisort bit is the node's parity. A cell still at the entry
	// level is an α the scatter failed to split.
	midTags := r.midTags[:n]
	levelEnd := int32(1) << uint(level)
	for i, c := range out {
		switch {
		case c.isIdle():
			midTags[i] = tag.Eps
		case c.node < levelEnd:
			return fmt.Errorf("core: α survived the scatter network at position %d", i)
		case c.node&1 == 1:
			midTags[i] = tag.V1
		default:
			midTags[i] = tag.V0
		}
	}
	if tr != nil {
		tr.ScatterNs += int64(time.Since(t0))
		t0 = time.Now()
	}

	// Pass 2: quasisort — 0s to the upper half, 1s to the lower half.
	if err := rbn.QuasisortPlanInto(lp.Quasi, r.divided[:n], midTags, r.sc); err != nil {
		return err
	}
	if _, err := rbn.ApplyScratch(lp.Quasi, out, out, nil); err != nil {
		return err
	}
	for i, c := range out {
		if c.isIdle() {
			continue
		}
		if c.node&1 == 0 && i >= n/2 {
			return fmt.Errorf("core: 0-tagged connection from input %d quasisorted to lower-half output %d", c.src, i)
		}
		if c.node&1 == 1 && i < n/2 {
			return fmt.Errorf("core: 1-tagged connection from input %d quasisorted to upper-half output %d", c.src, i)
		}
	}
	if tr != nil {
		tr.QuasiNs += int64(time.Since(t0))
	}
	return nil
}

// deliver realizes the 2x2 switch covering outputs base and base+1. Its
// input cells sit at the leaf level of their tag trees, so the lane IS
// the delivery instruction.
func (p *Planner) deliver(level, base int) error {
	if tr := p.tr; tr != nil {
		defer func(t0 time.Time) { tr.DeliverNs += int64(time.Since(t0)) }(time.Now())
	}
	cells := p.levels[level-1][base : base+2]
	heads := [2]tag.Value{tag.Eps, tag.Eps}
	for k, c := range cells {
		if c.isIdle() {
			continue
		}
		heads[k] = p.laneAt(p.treeOff[c.src], int(c.node))
	}
	setting, err := FinalSetting(heads)
	if err != nil {
		return err
	}
	out0, out1 := swbox.Apply(setting, cells[0], cells[1], splitFinal)
	p.final[base/2] = setting
	p.deliveries[base] = p.deliveryOf(out0)
	p.deliveries[base+1] = p.deliveryOf(out1)
	return nil
}

// verifyOwner checks deliveries against a validated owner map.
func verifyOwner(owner []int, deliveries []Delivery) error {
	for out, want := range owner {
		got := deliveries[out].Source
		if got != want {
			return fmt.Errorf("core: output %d received source %d, want %d", out, got, want)
		}
	}
	return nil
}

// Clone returns a deep copy of the result detached from any
// planner-owned storage, packed into a handful of flat backing arrays
// (about seven allocations regardless of network size).
func (r *Result) Clone() *Result {
	out := &Result{
		N:          r.N,
		Deliveries: append([]Delivery(nil), r.Deliveries...),
		Final:      append([]swbox.Setting(nil), r.Final...),
	}
	if len(r.Plans) == 0 {
		return out
	}
	totSet, totCol := 0, 0
	for _, lp := range r.Plans {
		totSet += lp.Scatter.M*lp.Scatter.N/2 + lp.Quasi.M*lp.Quasi.N/2
		totCol += lp.Scatter.M + lp.Quasi.M
	}
	flat := make([]swbox.Setting, totSet)
	cols := make([][]swbox.Setting, totCol)
	plans := make([]rbn.Plan, 2*len(r.Plans))
	out.Plans = make([]LevelPlan, len(r.Plans))
	si, ci := 0, 0
	clonePlan := func(src, dst *rbn.Plan) {
		dst.N, dst.M = src.N, src.M
		dst.Stages = cols[ci : ci+src.M : ci+src.M]
		ci += src.M
		for j, col := range src.Stages {
			c := flat[si : si+len(col) : si+len(col)]
			si += len(col)
			copy(c, col)
			dst.Stages[j] = c
		}
	}
	for i, lp := range r.Plans {
		sc, qu := &plans[2*i], &plans[2*i+1]
		clonePlan(lp.Scatter, sc)
		clonePlan(lp.Quasi, qu)
		out.Plans[i] = LevelPlan{Level: lp.Level, Base: lp.Base, Size: lp.Size, Scatter: sc, Quasi: qu}
	}
	return out
}

// PlannerPool shares planners for one network shape across goroutines:
// Get returns a warm planner (building one on first use or after a GC
// cycle reclaimed the pool), Put recycles it. The pool is the backing
// store of Network's Route and is safe for concurrent use.
//
// The pool also bounds arena retention: planners whose tag-tree arenas
// grew far past the recent workload (a one-off dense route in a sparse
// steady state) have them released on Put — see maintain in obs.go.
// Counters are exposed through Stats.
type PlannerPool struct {
	n    int
	pool sync.Pool

	gets, news, puts, shrinks atomic.Uint64
	need                      atomic.Int64 // decayed recent per-route arena need, bytes
	hw                        atomic.Int64 // retained arena high-water, bytes
}

// NewPlannerPool builds a pool of planners for n x n BRSMNs.
func NewPlannerPool(n int) (*PlannerPool, error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("core: network size %d is not a power of two >= 2", n)
	}
	p := &PlannerPool{n: n}
	p.pool.New = func() any {
		pl, err := NewPlanner(p.n)
		if err != nil {
			panic(err) // unreachable: n validated above
		}
		p.news.Add(1)
		return pl
	}
	return p, nil
}

// N returns the pool's network size.
func (p *PlannerPool) N() int { return p.n }

// Get returns a planner sized for the pool's network.
func (p *PlannerPool) Get() *Planner {
	p.gets.Add(1)
	return p.pool.Get().(*Planner)
}

// Put returns a planner to the pool. Results obtained from it become
// invalid once another goroutine reuses the planner — Clone first.
func (p *PlannerPool) Put(pl *Planner) {
	if pl != nil && pl.n == p.n {
		p.puts.Add(1)
		p.maintain(pl)
		p.pool.Put(pl)
	}
}
