package groupd

import (
	"errors"
	"testing"
	"time"

	"brsmn/internal/plancodec"
)

func newTestManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

func TestManagerConfigValidation(t *testing.T) {
	for _, n := range []int{0, 1, 3, 12, -8} {
		if _, err := NewManager(Config{N: n}); err == nil {
			t.Errorf("NewManager accepted n = %d", n)
		}
	}
}

func TestRegistryLifecycle(t *testing.T) {
	m := newTestManager(t, Config{N: 16})

	info, err := m.Create("conf", 2, []int{3, 4, 7})
	if err != nil {
		t.Fatal(err)
	}
	if info.ID != "conf" || info.Source != 2 || info.Gen != 1 || info.Size != 3 {
		t.Fatalf("create info = %+v", info)
	}
	if _, err := m.Create("conf", 5, nil); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create: %v", err)
	}

	u, err := m.Join("conf", 9)
	if err != nil {
		t.Fatal(err)
	}
	if u.Gen != 2 || u.Size != 4 {
		t.Fatalf("join update = %+v", u)
	}
	if _, err := m.Join("conf", 9); err == nil {
		t.Fatal("double join allowed")
	}
	u, err = m.Leave("conf", 3)
	if err != nil {
		t.Fatal(err)
	}
	if u.Gen != 3 || u.Size != 3 {
		t.Fatalf("leave update = %+v", u)
	}
	if _, err := m.Leave("conf", 3); err == nil {
		t.Fatal("double leave allowed")
	}

	got, err := m.Get("conf")
	if err != nil {
		t.Fatal(err)
	}
	want := []int{4, 7, 9}
	if len(got.Members) != len(want) {
		t.Fatalf("members = %v, want %v", got.Members, want)
	}
	for i := range want {
		if got.Members[i] != want[i] {
			t.Fatalf("members = %v, want %v", got.Members, want)
		}
	}
	if got.Sequence == "" {
		t.Fatal("empty sequence for non-empty group")
	}

	if m.Count() != 1 {
		t.Fatalf("count = %d", m.Count())
	}
	if err := m.Delete("conf"); err != nil {
		t.Fatal(err)
	}
	if err := m.Delete("conf"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("second delete: %v", err)
	}
	if _, err := m.Get("conf"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get after delete: %v", err)
	}
	if _, err := m.Join("conf", 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("join after delete: %v", err)
	}
}

func TestAutoIDAndList(t *testing.T) {
	m := newTestManager(t, Config{N: 8})
	a, err := m.Create("", 0, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Create("", 1, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if a.ID == "" || b.ID == "" || a.ID == b.ID {
		t.Fatalf("auto ids %q, %q", a.ID, b.ID)
	}
	list := m.List()
	if len(list) != 2 {
		t.Fatalf("list = %d entries", len(list))
	}
	if list[0].ID > list[1].ID {
		t.Fatalf("list unsorted: %q, %q", list[0].ID, list[1].ID)
	}
}

func TestCreateValidation(t *testing.T) {
	m := newTestManager(t, Config{N: 8})
	if _, err := m.Create("x", 8, nil); err == nil {
		t.Fatal("out-of-range source accepted")
	}
	if _, err := m.Create("x", 0, []int{99}); err == nil {
		t.Fatal("out-of-range member accepted")
	}
	if _, err := m.Create("x", 0, []int{1, 1}); err == nil {
		t.Fatal("duplicate member accepted")
	}
	// Failed creates must not leak into the registry.
	if m.Count() != 0 {
		t.Fatalf("count = %d after failed creates", m.Count())
	}
}

func TestPlanCacheSemantics(t *testing.T) {
	m := newTestManager(t, Config{N: 16})
	if _, err := m.Create("g", 3, []int{1, 5, 10}); err != nil {
		t.Fatal(err)
	}

	p1, err := m.Plan("g")
	if err != nil {
		t.Fatal(err)
	}
	if p1.Cached {
		t.Fatal("first plan claimed cached")
	}
	n, cols, err := plancodec.Decode(p1.Blob)
	if err != nil {
		t.Fatal(err)
	}
	if n != 16 || len(cols) != p1.Columns {
		t.Fatalf("decoded n=%d columns=%d, want 16/%d", n, len(cols), p1.Columns)
	}

	p2, err := m.Plan("g")
	if err != nil {
		t.Fatal(err)
	}
	if !p2.Cached || p2.Gen != p1.Gen {
		t.Fatalf("second plan = %+v, want cache hit at gen %d", p2, p1.Gen)
	}

	// A membership change invalidates: next plan is a miss at a new gen.
	if _, err := m.Join("g", 12); err != nil {
		t.Fatal(err)
	}
	p3, err := m.Plan("g")
	if err != nil {
		t.Fatal(err)
	}
	if p3.Cached || p3.Gen != p1.Gen+1 {
		t.Fatalf("post-join plan = %+v", p3)
	}

	st := m.CacheStats()
	if st.Hits != 1 || st.Misses != 2 || st.Invalidations != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPlanCacheEviction(t *testing.T) {
	m := newTestManager(t, Config{N: 8, CacheSize: 2})
	for _, id := range []string{"a", "b", "c"} {
		if _, err := m.Create(id, 0, []int{1, 2}); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Plan(id); err != nil {
			t.Fatal(err)
		}
	}
	st := m.CacheStats()
	if st.Size != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want size 2 / 1 eviction", st)
	}
	// "a" was evicted (LRU): replanning it misses.
	p, err := m.Plan("a")
	if err != nil {
		t.Fatal(err)
	}
	if p.Cached {
		t.Fatal("evicted plan served from cache")
	}
}

func TestRunEpochRoundsAndCacheWarm(t *testing.T) {
	m := newTestManager(t, Config{N: 16})
	// Three groups; a and b conflict on output 5, c is disjoint.
	mustCreate(t, m, "a", 0, []int{1, 5})
	mustCreate(t, m, "b", 3, []int{5, 9})
	mustCreate(t, m, "c", 7, []int{2, 11})
	mustCreate(t, m, "empty", 4, nil) // skipped: nothing to route

	rep, err := m.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Epoch != 1 || rep.Groups != 3 || rep.Fanout != 6 {
		t.Fatalf("report = %+v", rep)
	}
	if len(rep.Rounds) != 2 {
		t.Fatalf("%d rounds for one output conflict, want 2", len(rep.Rounds))
	}
	for _, rr := range rep.Rounds {
		for _, id := range rr.GroupIDs {
			g, err := m.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range g.Members {
				if rr.Deliveries[d] != g.Source {
					t.Fatalf("round %v: output %d got %d, want %d", rr.GroupIDs, d, rr.Deliveries[d], g.Source)
				}
			}
		}
	}

	// Second epoch with no churn: every plan hits.
	before := m.CacheStats()
	rep2, err := m.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	after := rep2.Cache
	if after.Misses != before.Misses {
		t.Fatalf("unchanged epoch replanned: misses %d -> %d", before.Misses, after.Misses)
	}
	if after.Hits != before.Hits+3 {
		t.Fatalf("unchanged epoch hits %d -> %d, want +3", before.Hits, after.Hits)
	}

	// Churn one group: exactly one replan next epoch.
	if _, err := m.Join("a", 14); err != nil {
		t.Fatal(err)
	}
	rep3, err := m.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if rep3.Cache.Misses != after.Misses+1 {
		t.Fatalf("churned epoch misses %d -> %d, want +1", after.Misses, rep3.Cache.Misses)
	}
	if m.LastEpoch().Epoch != 3 || m.Epoch() != 3 {
		t.Fatalf("epoch counter = %d / report %d", m.Epoch(), m.LastEpoch().Epoch)
	}
}

func TestEpochEmptyRegistry(t *testing.T) {
	m := newTestManager(t, Config{N: 8})
	rep, err := m.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Groups != 0 || len(rep.Rounds) != 0 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestThresholdDrivenEpoch(t *testing.T) {
	m := newTestManager(t, Config{N: 8, EpochThreshold: 2})
	mustCreate(t, m, "g", 0, []int{3}) // 2 changes: create + 1 member
	deadline := time.Now().Add(5 * time.Second)
	for m.Epoch() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("threshold epoch never fired")
		}
		time.Sleep(time.Millisecond)
	}
	if rep := m.LastEpoch(); rep == nil || rep.Groups != 1 {
		t.Fatalf("report = %+v", m.LastEpoch())
	}
}

func TestTimerDrivenEpochAndClose(t *testing.T) {
	m, err := NewManager(Config{N: 8, EpochPeriod: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create("g", 1, []int{0, 2}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for m.Epoch() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("timer epochs never fired")
		}
		time.Sleep(time.Millisecond)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal("second close errored:", err)
	}
	if _, err := m.Create("late", 0, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("create after close: %v", err)
	}
	if _, err := m.RunEpoch(); !errors.Is(err, ErrClosed) {
		t.Fatalf("epoch after close: %v", err)
	}
}

func mustCreate(t *testing.T, m *Manager, id string, source int, members []int) {
	t.Helper()
	if _, err := m.Create(id, source, members); err != nil {
		t.Fatal(err)
	}
}
