package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"brsmn/internal/groupd"
	"brsmn/internal/mcast"
	"brsmn/internal/obs"
)

func newTestSet(t *testing.T, cfg Config) *Set {
	t.Helper()
	if cfg.Group.N == 0 {
		cfg.Group.N = 16
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// seedGroups creates count groups "t0".."t<count-1>", each rooted at
// source 0 with a couple of members.
func seedGroups(t *testing.T, s *Set, count int) []string {
	t.Helper()
	ids := make([]string, 0, count)
	for i := 0; i < count; i++ {
		id := fmt.Sprintf("t%d", i)
		if _, err := s.Create(context.Background(), id, 0, []int{1 + i%4, 8 + i%7}); err != nil {
			t.Fatalf("create %s: %v", id, err)
		}
		ids = append(ids, id)
	}
	return ids
}

func TestLifecycleAcrossShards(t *testing.T) {
	s := newTestSet(t, Config{Shards: 4})
	ids := seedGroups(t, s, 16)

	if got := s.Count(); got != 16 {
		t.Fatalf("Count = %d, want 16", got)
	}
	list := s.List()
	if len(list) != 16 {
		t.Fatalf("List returned %d groups", len(list))
	}
	for i := 1; i < len(list); i++ {
		if list[i-1].ID >= list[i].ID {
			t.Fatalf("List not sorted: %q before %q", list[i-1].ID, list[i].ID)
		}
	}

	up, err := s.Join(context.Background(), ids[3], 15)
	if err != nil {
		t.Fatal(err)
	}
	if up.Gen != 2 {
		t.Fatalf("join gen = %d, want 2", up.Gen)
	}
	if _, err := s.Leave(context.Background(), ids[3], 15); err != nil {
		t.Fatal(err)
	}

	p, err := s.Plan(context.Background(), ids[3])
	if err != nil {
		t.Fatal(err)
	}
	if p.Cached || len(p.Blob) == 0 {
		t.Fatalf("first plan = %+v, want uncached with blob", p)
	}
	p, err = s.Plan(context.Background(), ids[3])
	if err != nil {
		t.Fatal(err)
	}
	if !p.Cached {
		t.Fatal("second plan missed the cache")
	}

	if err := s.Delete(context.Background(), ids[3]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(ids[3]); !errors.Is(err, groupd.ErrNotFound) {
		t.Fatalf("get after delete: %v", err)
	}
	if got := s.Count(); got != 15 {
		t.Fatalf("Count after delete = %d, want 15", got)
	}
}

func TestCreateAutoID(t *testing.T) {
	s := newTestSet(t, Config{Shards: 2})
	a, err := s.Create(context.Background(), "", 0, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Create(context.Background(), "", 0, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if a.ID == "" || b.ID == "" || a.ID == b.ID {
		t.Fatalf("auto IDs = %q, %q", a.ID, b.ID)
	}
}

// placementInvariant checks the core placement property: every group
// lives on exactly one shard, that shard is live, and it is the shard
// the ring locates for the group's ID.
func placementInvariant(t *testing.T, s *Set, wantGroups int) {
	t.Helper()
	seen := map[string]int{}
	for _, sh := range s.shards {
		for _, info := range sh.gm.List() {
			if prev, dup := seen[info.ID]; dup {
				t.Fatalf("group %q on shards %d and %d", info.ID, prev, sh.id)
			}
			seen[info.ID] = sh.id
			if sh.dead.Load() {
				t.Fatalf("group %q on quarantined shard %d", info.ID, sh.id)
			}
			s.placeMu.RLock()
			want, err := s.locate(info.ID)
			s.placeMu.RUnlock()
			if err != nil {
				t.Fatalf("locate %q: %v", info.ID, err)
			}
			if want != sh {
				t.Fatalf("group %q on shard %d, ring owner is %d", info.ID, sh.id, want.id)
			}
		}
	}
	if len(seen) != wantGroups {
		t.Fatalf("placement covers %d groups, want %d", len(seen), wantGroups)
	}
}

func TestPlacementProperty(t *testing.T) {
	s := newTestSet(t, Config{Shards: 4})
	seedGroups(t, s, 64)
	placementInvariant(t, s, 64)

	// Placement should actually spread: with 64 groups over 4 shards and
	// 64 virtual nodes each, no shard should be empty.
	for _, sh := range s.shards {
		if sh.gm.Count() == 0 {
			t.Fatalf("shard %d owns no groups", sh.id)
		}
	}

	if err := s.Quarantine(1); err != nil {
		t.Fatal(err)
	}
	if s.shards[1].gm.Count() != 0 {
		t.Fatalf("quarantined shard still owns %d groups", s.shards[1].gm.Count())
	}
	placementInvariant(t, s, 64)
	if s.Stats().Migrations == 0 {
		t.Fatal("quarantine migrated nothing")
	}

	// A second quarantine drains another shard while the first stays out.
	if err := s.Quarantine(3); err != nil {
		t.Fatal(err)
	}
	placementInvariant(t, s, 64)

	if err := s.Reinstate(1); err != nil {
		t.Fatal(err)
	}
	if err := s.Reinstate(3); err != nil {
		t.Fatal(err)
	}
	placementInvariant(t, s, 64)
	if s.shards[1].gm.Count() == 0 {
		t.Fatal("reinstated shard got no groups back")
	}

	// Group operations still work end to end after the churn.
	for _, info := range s.List() {
		if _, err := s.Plan(context.Background(), info.ID); err != nil {
			t.Fatalf("plan %q after rebalance: %v", info.ID, err)
		}
	}
}

func TestQuarantineGuards(t *testing.T) {
	s := newTestSet(t, Config{Shards: 2})
	if err := s.Quarantine(7); !errors.Is(err, ErrNoSuchShard) {
		t.Fatalf("out-of-range quarantine: %v", err)
	}
	if err := s.Reinstate(0); err == nil {
		t.Fatal("reinstating a live shard succeeded")
	}
	if err := s.Quarantine(0); err != nil {
		t.Fatal(err)
	}
	if err := s.Quarantine(0); err == nil {
		t.Fatal("double quarantine succeeded")
	}
	if err := s.Quarantine(1); err == nil {
		t.Fatal("quarantining the last live shard succeeded")
	}
	if err := s.Reinstate(0); err != nil {
		t.Fatal(err)
	}
}

// TestQuarantineKeepsGenAndWarmPlan checks that a rebalance moves a
// group whole: after a quarantine, and again after the reinstate, the
// group keeps its generation, and the gaining shard's first plan is a
// cache hit with the bytes planned before the move.
func TestQuarantineKeepsGenAndWarmPlan(t *testing.T) {
	s := newTestSet(t, Config{Shards: 2})
	ctx := context.Background()
	if _, err := s.Create(ctx, "x", 0, []int{1, 2}); err != nil {
		t.Fatal(err)
	}
	for _, d := range []int{5, 9} {
		if _, err := s.Join(ctx, "x", d); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Leave(ctx, "x", 5); err != nil {
		t.Fatal(err)
	}
	warm, err := s.Plan(ctx, "x")
	if err != nil {
		t.Fatal(err)
	}
	check := func(stage string, want int) {
		t.Helper()
		if sh, _ := s.locate("x"); sh.id != want {
			t.Fatalf("%s: group on shard %d, want %d", stage, sh.id, want)
		}
		info, err := s.Get("x")
		if err != nil {
			t.Fatal(err)
		}
		if info.Gen != 4 {
			t.Fatalf("%s: gen %d, want 4", stage, info.Gen)
		}
		p, err := s.Plan(ctx, "x")
		if err != nil {
			t.Fatal(err)
		}
		if !p.Cached || !bytes.Equal(p.Blob, warm.Blob) {
			t.Fatalf("%s: first plan cached=%v, same blob=%v; want a warm identical hit", stage, p.Cached, bytes.Equal(p.Blob, warm.Blob))
		}
	}
	home, _ := s.locate("x")
	if err := s.Quarantine(home.id); err != nil {
		t.Fatal(err)
	}
	check("after quarantine", 1-home.id)
	if err := s.Reinstate(home.id); err != nil {
		t.Fatal(err)
	}
	check("after reinstate", home.id)
}

func TestClosedSet(t *testing.T) {
	s := newTestSet(t, Config{Shards: 2})
	seedGroups(t, s, 4)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if _, err := s.Create(context.Background(), "late", 0, []int{1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("create after close: %v", err)
	}
	if _, err := s.Plan(context.Background(), "t0"); !errors.Is(err, ErrClosed) {
		t.Fatalf("plan after close: %v", err)
	}
	if err := s.Quarantine(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("quarantine after close: %v", err)
	}
}

// TestShedOverload drives the backpressure path directly: a full queue
// with no worker sheds after AdmitWait with ErrOverloaded, and a
// context canceled inside the backpressure window frees the caller
// immediately, counting as canceled rather than shed.
func TestShedOverload(t *testing.T) {
	s := &Set{cfg: Config{AdmitWait: 5 * time.Millisecond}}
	s.tasks.New = func() any { return &task{done: make(chan struct{}, 1)} }
	sh := &Shard{id: 0, set: s, queue: make(chan *task, 1)}
	s.shards = []*Shard{sh}
	s.rebuildRing()
	sh.queue <- &task{} // fill; no worker drains it

	tk := s.getTask()
	tk.id = "x"
	if _, err := s.enqueue(context.Background(), tk); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("enqueue on full queue: %v", err)
	}
	if sh.shed.Load() != 1 {
		t.Fatalf("shed counter = %d, want 1", sh.shed.Load())
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.enqueue(ctx, tk); !errors.Is(err, context.Canceled) {
		t.Fatalf("enqueue with canceled ctx: %v", err)
	}
	if sh.canceled.Load() != 1 {
		t.Fatalf("canceled counter = %d, want 1", sh.canceled.Load())
	}
	if sh.shed.Load() != 1 {
		t.Fatalf("shed counter after cancel = %d, want 1", sh.shed.Load())
	}
}

// TestAdmissionSoak hammers a 4-shard set from many goroutines (run
// under -race in CI): below the shedding threshold no operation may be
// dropped, and every shard's shed counter must stay zero.
func TestAdmissionSoak(t *testing.T) {
	s := newTestSet(t, Config{Shards: 4, QueueDepth: 128, BatchMax: 16, AdmitWait: time.Second})
	ids := seedGroups(t, s, 32)
	for _, id := range ids { // warm every plan
		if _, err := s.Plan(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}

	const workers = 8
	const opsPer = 150
	var wg sync.WaitGroup
	var failures atomic.Uint64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				id := ids[(w*opsPer+i)%len(ids)]
				switch i % 4 {
				case 0, 1:
					// Join/leave races between workers legitimately fail
					// with membership errors; only admission failures
					// (shed, closed) count against the soak.
					var err error
					if i%4 == 0 {
						_, err = s.Join(context.Background(), id, 15)
					} else {
						_, err = s.Leave(context.Background(), id, 15)
					}
					if errors.Is(err, ErrOverloaded) || errors.Is(err, ErrClosed) || errors.Is(err, ErrNoLiveShard) {
						failures.Add(1)
					}
				default:
					if _, err := s.Plan(context.Background(), id); err != nil {
						failures.Add(1)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d operations failed under soak", n)
	}
	st := s.Stats()
	var admitted uint64
	for _, ss := range st.PerShard {
		admitted += ss.Admitted
		if ss.Shed != 0 {
			t.Fatalf("shard %d shed %d operations below threshold", ss.ID, ss.Shed)
		}
	}
	if admitted < workers*opsPer {
		t.Fatalf("admitted %d < %d issued", admitted, workers*opsPer)
	}
}

// TestSteadyPlanAllocs pins the acceptance bar: admission adds zero
// allocations per operation on the warm (cache-hit) plan path.
func TestSteadyPlanAllocs(t *testing.T) {
	s := newTestSet(t, Config{Shards: 4, Metrics: obs.NewRegistry()})
	ids := seedGroups(t, s, 8)
	id := ids[5]
	if _, err := s.Plan(context.Background(), id); err != nil { // warm
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := s.Plan(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady admitted plan allocates %.1f objects/op, want 0", allocs)
	}
}

// fakePolicy is a controllable FaultPolicy + HealthReporter for the
// auto-quarantine path.
type fakePolicy struct {
	healthy atomic.Bool
}

func (p *fakePolicy) FilterAssignment(a mcast.Assignment) (mcast.Assignment, []int) { return a, nil }
func (p *fakePolicy) Version() uint64                                               { return 0 }
func (p *fakePolicy) AfterEpoch(int64)                                              {}
func (p *fakePolicy) Healthy() bool                                                 { return p.healthy.Load() }

func TestAutoQuarantineOnUnhealthyPolicy(t *testing.T) {
	policies := make([]*fakePolicy, 2)
	fired := make(chan int, 1)
	s := newTestSet(t, Config{
		Shards: 2,
		NewPolicy: func(i int) groupd.FaultPolicy {
			p := &fakePolicy{}
			p.healthy.Store(true)
			policies[i] = p
			return p
		},
		OnQuarantine: func(i int) { fired <- i },
	})
	seedGroups(t, s, 12)
	placementInvariant(t, s, 12)

	// Healthy epochs never trigger.
	if _, err := s.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	select {
	case i := <-fired:
		t.Fatalf("quarantine fired for shard %d while healthy", i)
	default:
	}

	policies[0].healthy.Store(false)
	if _, err := s.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	select {
	case i := <-fired:
		if i != 0 {
			t.Fatalf("quarantined shard %d, want 0", i)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("auto-quarantine never fired")
	}
	if !s.shards[0].dead.Load() {
		t.Fatal("shard 0 not marked dead")
	}
	placementInvariant(t, s, 12)

	// The trigger is one-shot: further unhealthy epochs don't re-fire,
	// and reinstating re-arms it.
	if _, err := s.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-fired:
		t.Fatal("quarantine re-fired while already quarantined")
	case <-time.After(50 * time.Millisecond):
	}
	policies[0].healthy.Store(true)
	if err := s.Reinstate(0); err != nil {
		t.Fatal(err)
	}
	placementInvariant(t, s, 12)
	if s.shards[0].watch.fired.Load() {
		t.Fatal("watch trigger not re-armed by reinstate")
	}
}

// TestShardMetrics checks that the admission series render per shard
// and the aggregates are present.
func TestShardMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestSet(t, Config{Shards: 2, Metrics: reg})
	seedGroups(t, s, 6)
	for i := 0; i < 6; i++ {
		if _, err := s.Plan(context.Background(), fmt.Sprintf("t%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		`brsmn_shard_admitted_total{shard="0"}`,
		`brsmn_shard_admitted_total{shard="1"}`,
		`brsmn_shard_queue_capacity{shard="0"} 256`,
		`brsmn_shard_live{shard="1"} 1`,
		"brsmn_shards 2",
		"brsmn_shards_live 2",
		"brsmn_shard_migrations_total 0",
		`brsmn_shard_batch_size_count{shard="0"}`,
		`brsmn_shard_admission_wait_seconds_count{shard="1"}`,
		// Per-shard manager series ride the same label.
		`brsmn_groups{shard="0"}`,
		`brsmn_groups{shard="1"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if strings.Count(text, "# TYPE brsmn_shard_admitted_total") != 1 {
		t.Error("per-shard series split the family header")
	}

	if err := s.Quarantine(0); err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text = sb.String()
	if !strings.Contains(text, `brsmn_shard_live{shard="0"} 0`) ||
		!strings.Contains(text, "brsmn_shards_live 1") ||
		!strings.Contains(text, "brsmn_shard_quarantines_total 1") {
		t.Errorf("post-quarantine metrics wrong:\n%s", text)
	}
}

// TestEpochMerging runs epochs across shards and checks the merged
// report covers every group.
func TestEpochMerging(t *testing.T) {
	s := newTestSet(t, Config{Shards: 3})
	seedGroups(t, s, 9)
	rep, err := s.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Groups != 9 {
		t.Fatalf("epoch covered %d groups, want 9", rep.Groups)
	}
	if rep.Epoch != 1 {
		t.Fatalf("merged epoch = %d, want 1", rep.Epoch)
	}
	last := s.LastEpoch()
	if last == nil || last.Groups != 9 {
		t.Fatalf("LastEpoch = %+v", last)
	}
	if got := s.Epoch(); got != 1 {
		t.Fatalf("Epoch() = %d, want 1", got)
	}
}
