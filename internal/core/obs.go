package core

// Observability hooks for the planning hot path: per-route tracing
// (RouteTraced), planner memory accounting, and the planner pool's
// hit/miss/retention counters. Everything here is pay-for-use — an
// untraced Route takes one nil check per recursion node, and the pool
// counters are single atomic adds.

import (
	"time"

	"brsmn/internal/mcast"
	"brsmn/internal/obs"
	"brsmn/internal/shuffle"
)

// RetainedTagBytes returns the bytes of tag-tree arena storage the
// planner keeps alive between routes — the part of its footprint that
// grows with the number of active inputs rather than network size.
func (p *Planner) RetainedTagBytes() int {
	return len(p.treeWords) * 8
}

// lastUsedTagBytes returns the arena bytes the most recent route
// actually consumed (the arena is reset at the next route, so the value
// persists after Route returns).
func (p *Planner) lastUsedTagBytes() int {
	return p.treeUsed * 8
}

// ShrinkArenas drops the retained tag-tree arena; subsequent routes
// regrow it to actual need. The fixed, n-sized planning structures
// (cell levels, plan slots, BSN buffers) are untouched. The retained route
// loses its trees, so in-place patching is disabled until the next full
// route.
func (p *Planner) ShrinkArenas() {
	p.treeWords = nil
	p.treeUsed = 0
	p.routed = false
}

// RouteTraced is Route with per-stage tracing into tr: wall-clock total,
// scatter/quasisort/advance/deliver stage times (summed over the
// recursion's nodes) and the paper-level route quantities. A nil tr
// falls back to the untraced path.
func (p *Planner) RouteTraced(a mcast.Assignment, tr *obs.RouteTrace) (*Result, error) {
	if tr == nil {
		return p.Route(a)
	}
	tr.N = p.n
	tr.When = time.Now()
	p.tr = tr
	start := time.Now()
	res, err := p.RouteWithPayloads(a, nil)
	p.tr = nil
	tr.TotalNs = int64(time.Since(start))
	if err != nil {
		return nil, err
	}
	p.fillTraceQuantities(tr)
	return res, nil
}

// fillTraceQuantities derives the Section 7 accounting numbers from the
// freshly routed plan slots: switch settings emitted (every reverse-
// banyan stage plus the final column), α-splits realized as broadcast
// settings, and the physical column depth.
func (p *Planner) fillTraceQuantities(tr *obs.RouteTrace) {
	tr.LevelsSwept = p.m
	tr.BSNs = len(p.plans)
	settings, alphas := 0, 0
	for i := range p.plans {
		lp := &p.plans[i]
		settings += lp.Scatter.M*lp.Scatter.N/2 + lp.Quasi.M*lp.Quasi.N/2
		c := lp.Scatter.CountSettings()
		alphas += c[2] + c[3] // the two broadcast settings
	}
	settings += len(p.final)
	for _, f := range p.final {
		if f.IsBroadcast() {
			alphas++
		}
	}
	tr.Settings = settings
	tr.AlphaSplits = alphas
	// Column depth of the unrolled network: 2 log2(size) per level plus
	// the delivery column (cost.BRSMNDepth, restated here to keep core
	// free of a cost import whose tests route through core).
	depth := 0
	for size := p.n; size > 2; size /= 2 {
		depth += 2 * shuffle.Log2(size)
	}
	tr.Columns = depth + 1
}

// RouteTraced is Network.Route with tracing: the pooled planner's stages
// land in tr and the detaching clone is stamped as the clone/detach
// stage. See Planner.RouteTraced for the tr contract.
func (nw *Network) RouteTraced(a mcast.Assignment, tr *obs.RouteTrace) (*Result, error) {
	if tr == nil {
		return nw.Route(a)
	}
	pl := nw.pool.Get()
	res, err := pl.RouteTraced(a, tr)
	if err != nil {
		nw.pool.Put(pl)
		return nil, err
	}
	t0 := time.Now()
	out := res.Clone()
	tr.CloneNs += int64(time.Since(t0))
	nw.pool.Put(pl)
	return out, nil
}

// Pool retention policy: a planner's arenas grow to the high-water
// fanout they ever routed and sync.Pool would keep that forever. Put
// tracks a decayed recent-need estimate and releases the arenas of any
// planner retaining more than shrinkFactor times it, so a one-off dense
// route does not pin arena memory under a sparse steady state.
const (
	shrinkFactor = 4
	// minNeedBytes floors the need estimate so near-idle workloads do
	// not shrink-thrash over the arena's minimum chunk size. The floor
	// is additionally raised to the planner's structural baseline — one
	// arena growth chunk, or one tree for networks too large for a
	// single chunk, which is not workload growth.
	minNeedBytes = 4 << 10
)

// baselineTagBytes is the retention an n-port planner reaches from the
// tag-tree arena minimum alone: one growth chunk, or one packed tree if
// a single tree already exceeds it.
func baselineTagBytes(n int) int64 {
	wpt := (n-1)>>5 + 1
	if wpt < treeChunkWords {
		wpt = treeChunkWords
	}
	return int64(wpt) * 8
}

// PoolStats is a point-in-time snapshot of a PlannerPool's counters.
type PoolStats struct {
	// Gets counts planner checkouts; News counts the Gets that had to
	// build a planner (pool misses: first use or GC-reclaimed pool).
	Gets uint64 `json:"gets"`
	News uint64 `json:"news"`
	Puts uint64 `json:"puts"`
	// Shrinks counts arena releases forced by the retention policy.
	Shrinks uint64 `json:"shrinks"`
	// RetainedHighWaterBytes is the largest arena retention any planner
	// reached; RecentNeedBytes is the decayed per-route need estimate
	// the shrink threshold derives from.
	RetainedHighWaterBytes int64 `json:"retainedHighWaterBytes"`
	RecentNeedBytes        int64 `json:"recentNeedBytes"`
}

// Stats snapshots the pool counters.
func (p *PlannerPool) Stats() PoolStats {
	return PoolStats{
		Gets:                   p.gets.Load(),
		News:                   p.news.Load(),
		Puts:                   p.puts.Load(),
		Shrinks:                p.shrinks.Load(),
		RetainedHighWaterBytes: p.hw.Load(),
		RecentNeedBytes:        p.need.Load(),
	}
}

// maintain applies the retention policy to a planner on its way back
// into the pool.
func (p *PlannerPool) maintain(pl *Planner) {
	used := int64(pl.lastUsedTagBytes())
	var need int64
	for {
		cur := p.need.Load()
		need = cur - cur/16 // exponential decay toward the recent regime
		if used > need {
			need = used
		}
		if p.need.CompareAndSwap(cur, need) {
			break
		}
	}
	retained := int64(pl.RetainedTagBytes())
	for {
		hw := p.hw.Load()
		if retained <= hw || p.hw.CompareAndSwap(hw, retained) {
			break
		}
	}
	floor := need
	if floor < minNeedBytes {
		floor = minNeedBytes
	}
	if base := baselineTagBytes(p.n); floor < base {
		floor = base
	}
	if retained > shrinkFactor*floor {
		pl.ShrinkArenas()
		p.shrinks.Add(1)
	}
}
