package groupd

import (
	"bytes"
	"sync"
	"testing"
)

func TestPlanCacheLRUOrder(t *testing.T) {
	c := newPlanCache(2)
	c.put(planKey{"a", 1, 0}, []byte{1}, 1)
	c.put(planKey{"b", 1, 0}, []byte{2}, 1)
	// Touch a so b becomes the LRU victim.
	if _, ok := c.get(planKey{"a", 1, 0}); !ok {
		t.Fatal("a missing")
	}
	c.put(planKey{"c", 1, 0}, []byte{3}, 1)
	if _, ok := c.get(planKey{"b", 1, 0}); ok {
		t.Fatal("b not evicted")
	}
	if _, ok := c.get(planKey{"a", 1, 0}); !ok {
		t.Fatal("a evicted despite recent use")
	}
	st := c.stats()
	if st.Evictions != 1 || st.Size != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPlanCachePutOverwrites(t *testing.T) {
	c := newPlanCache(4)
	k := planKey{"g", 7, 0}
	c.put(k, []byte{1, 2}, 3)
	c.put(k, []byte{9}, 5)
	e, ok := c.get(k)
	if !ok || !bytes.Equal(e.blob, []byte{9}) || e.columns != 5 {
		t.Fatalf("entry = %+v ok=%v", e, ok)
	}
	if st := c.stats(); st.Size != 1 {
		t.Fatalf("size = %d after overwrite", st.Size)
	}
}

func TestPlanCacheInvalidate(t *testing.T) {
	c := newPlanCache(4)
	k := planKey{"g", 1, 0}
	c.put(k, []byte{1}, 1)
	c.invalidate(k)
	c.invalidate(k) // absent: no double count
	if _, ok := c.get(k); ok {
		t.Fatal("entry survived invalidation")
	}
	st := c.stats()
	if st.Invalidations != 1 || st.Size != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// Distinct generations are distinct entries.
	c.put(planKey{"g", 1, 0}, []byte{1}, 1)
	c.put(planKey{"g", 2, 0}, []byte{2}, 1)
	if st := c.stats(); st.Size != 2 {
		t.Fatalf("size = %d, want 2 generations", st.Size)
	}
}

// TestPlanCacheStatsRace hammers stats() while writer goroutines churn
// the cache — the counters were plain ints read outside the structural
// mutex, which the race detector flags and which could tear or drop
// increments on scrape-heavy deployments. Run with -race.
func TestPlanCacheStatsRace(t *testing.T) {
	const (
		writers    = 4
		iterations = 2000
	)
	c := newPlanCache(8)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 4; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = c.stats()
				}
			}
		}()
	}
	var writersWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			id := string(rune('a' + w))
			for i := 0; i < iterations; i++ {
				k := planKey{id, uint64(i % 32), 0}
				c.put(k, []byte{byte(i)}, 1)
				c.get(k)
				if i%7 == 0 {
					c.invalidate(k)
				}
			}
		}(w)
	}
	writersWG.Wait()
	close(stop)
	readers.Wait()

	// Every get either hit or missed; none may have been lost.
	st := c.stats()
	if st.Hits+st.Misses != writers*iterations {
		t.Fatalf("hits %d + misses %d != %d gets", st.Hits, st.Misses, writers*iterations)
	}
	if st.Size > st.Capacity {
		t.Fatalf("size %d exceeds capacity %d", st.Size, st.Capacity)
	}
}
