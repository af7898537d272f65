package groupd

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// planKey identifies one cached column program: a group at a specific
// generation, planned under a specific fault-policy version.
// Generations are monotonic, so a key can never refer to two different
// memberships; a policy change (fault localized, quarantine grown)
// bumps pv, so degraded plans never shadow healthy ones. Stale-version
// entries age out through normal LRU eviction.
type planKey struct {
	id  string
	gen uint64
	pv  uint64
}

type planEntry struct {
	key     planKey
	blob    []byte // plancodec-encoded column program
	columns int
}

// CacheStats is a point-in-time snapshot of the plan cache's counters —
// the numbers the churn benchmarks watch.
type CacheStats struct {
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Evictions     uint64 `json:"evictions"`
	Invalidations uint64 `json:"invalidations"`
	Size          int    `json:"size"`
	Capacity      int    `json:"capacity"`
}

// planCache is a mutex-guarded LRU over encoded column programs. A
// membership change bumps the group's generation and invalidates the old
// key eagerly; an entry inserted by a racing Plan for an already-stale
// generation is harmless — no lookup uses old generations — and ages out
// through normal LRU eviction.
//
// The mutex covers only the LRU structure; the counters are sync/atomic
// so Stats can be read lock-free while epoch goroutines churn the cache
// (and so a scrape never contends with the replan path).
type planCache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	items    map[planKey]*list.Element

	hits, misses, evictions, invalidations atomic.Uint64
}

func newPlanCache(capacity int) *planCache {
	return &planCache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[planKey]*list.Element, capacity),
	}
}

func (c *planCache) get(k planKey) (planEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		c.misses.Add(1)
		return planEntry{}, false
	}
	c.hits.Add(1)
	c.ll.MoveToFront(el)
	return *el.Value.(*planEntry), true
}

// peek is a stats- and LRU-neutral lookup: the snapshot writer uses it
// to harvest warm plans without skewing hit/miss counters or recency.
func (c *planCache) peek(k planKey) (planEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		return planEntry{}, false
	}
	return *el.Value.(*planEntry), true
}

func (c *planCache) put(k planKey, blob []byte, columns int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		el.Value = &planEntry{key: k, blob: blob, columns: columns}
		c.ll.MoveToFront(el)
		return
	}
	c.items[k] = c.ll.PushFront(&planEntry{key: k, blob: blob, columns: columns})
	for c.ll.Len() > c.capacity {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.items, back.Value.(*planEntry).key)
		c.evictions.Add(1)
	}
}

func (c *planCache) invalidate(k planKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.ll.Remove(el)
		delete(c.items, k)
		c.invalidations.Add(1)
	}
}

func (c *planCache) stats() CacheStats {
	c.mu.Lock()
	size := c.ll.Len()
	c.mu.Unlock()
	return CacheStats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Evictions:     c.evictions.Load(),
		Invalidations: c.invalidations.Load(),
		Size:          size,
		Capacity:      c.capacity,
	}
}
