package rbn

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Occupancy counts the sweep-worker goroutines currently executing a
// parallel chunk, plus the all-time peak — the "how busy is the engine"
// gauge the daemon's metrics surface scrapes. A nil *Occupancy is valid
// and records nothing, so the tracking costs two atomic adds per spawn
// batch only when someone is watching. Safe for concurrent use.
type Occupancy struct {
	busy atomic.Int64
	peak atomic.Int64
}

// Busy returns the number of worker goroutines currently in a sweep.
func (o *Occupancy) Busy() int64 {
	if o == nil {
		return 0
	}
	return o.busy.Load()
}

// Peak returns the largest concurrent worker count observed.
func (o *Occupancy) Peak() int64 {
	if o == nil {
		return 0
	}
	return o.peak.Load()
}

// add moves the busy count by n, raising the peak on the way up.
func (o *Occupancy) add(n int64) {
	if o == nil {
		return
	}
	b := o.busy.Add(n)
	for {
		p := o.peak.Load()
		if b <= p || o.peak.CompareAndSwap(p, b) {
			return
		}
	}
}

// Engine selects how the distributed setting algorithms are executed.
// Workers <= 1 runs the forward/backward sweeps sequentially; Workers > 1
// processes the independent nodes of each tree level concurrently, which
// mirrors the hardware, where every node of a level computes in parallel.
// Both modes produce bit-identical plans. Occ, when non-nil, tracks
// worker occupancy across every sweep the engine runs.
//
// Scalar forces the one-tag-per-iteration reference sweeps. The zero
// value (false) lets sufficiently large sweeps run the word-parallel
// packed kernels of kernels.go, which produce byte-identical plans; the
// scalar path is retained as the differential oracle and for exotic
// debugging.
type Engine struct {
	Workers int
	Occ     *Occupancy
	Scalar  bool
}

// Sequential is the default engine.
var Sequential = Engine{Workers: 1}

// ParallelEngine returns an engine using one worker per available CPU.
func ParallelEngine() Engine {
	return Engine{Workers: runtime.GOMAXPROCS(0)}
}

// minGrain is the smallest per-worker chunk worth spawning a goroutine
// for; below it the scheduling overhead dominates the O(1) per-node work.
// The threshold is deliberately high: a 4096-node sweep level is ~4 µs of
// scalar work, about the point where a goroutine spawn + wait pair stops
// costing more than it saves. (At the old 256 threshold a 4-worker engine
// spent more time parking/unparking workers per tree level than sweeping,
// which made the planner-parallel bench regime slower than one worker;
// coarse-grained parallelism across BSN subtrees is the planner's job.)
const minGrain = 4096

// parFor runs fn(args, lo, hi) over [0, n) split into contiguous chunks
// across the engine's workers; with one worker (or a small n) it
// degenerates to a single direct call. fn must be capture-free — all
// state flows through args — so the func value is static and the
// sequential fast path performs no allocation (a closure passed to the
// goroutine-spawning slow path would otherwise escape to the heap at
// every call site, dominating the allocation profile of a warm planning
// loop).
func parFor[A any](e Engine, n int, args A, fn func(a A, lo, hi int)) {
	w := e.Workers
	if w <= 1 || n <= minGrain {
		fn(args, 0, n)
		return
	}
	chunks := (n + minGrain - 1) / minGrain
	if chunks < w {
		w = chunks
	}
	e.Occ.add(int64(w))
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		lo := k * n / w
		hi := (k + 1) * n / w
		go func(lo, hi int) {
			defer wg.Done()
			fn(args, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	e.Occ.add(int64(-w))
}
