package shard

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"brsmn/internal/groupd"
	"brsmn/internal/store"
)

// memStores is a reusable per-shard MemStore factory, so two Sets can
// model a restart over the same "disk".
type memStores struct {
	stores map[int]*store.MemStore
}

func newMemStores() *memStores { return &memStores{stores: map[int]*store.MemStore{}} }

func (m *memStores) factory(i int) (store.Store, error) {
	if st, ok := m.stores[i]; ok {
		return st, nil
	}
	st := store.NewMem()
	m.stores[i] = st
	return st, nil
}

// newDurableSet builds a Set over the factory without cleanup-time
// Close (restart tests close explicitly, and MemStores must survive).
func newDurableSet(t *testing.T, cfg Config) *Set {
	t.Helper()
	if cfg.Group.N == 0 {
		cfg.Group.N = 16
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSetRestartRecovery(t *testing.T) {
	ms := newMemStores()
	s1 := newDurableSet(t, Config{Shards: 4, NewStore: ms.factory})
	ids := seedGroups(t, s1, 16)
	if _, err := s1.Join(context.Background(), ids[3], 15); err != nil {
		t.Fatal(err)
	}
	if err := s1.Delete(context.Background(), ids[5]); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Create(context.Background(), "", 2, []int{4}); err != nil { // auto-ID g1
		t.Fatal(err)
	}
	want := s1.List()
	// No Close: MemStore restart modeling replays the raw logs.

	s2 := newDurableSet(t, Config{Shards: 4, NewStore: ms.factory})
	if got := s2.List(); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered set state:\n got %+v\nwant %+v", got, want)
	}
	// Each group recovered onto the shard that owns its hash point.
	for _, info := range want {
		if _, err := s2.Get(info.ID); err != nil {
			t.Fatalf("get %q after recovery: %v", info.ID, err)
		}
	}
	// Auto-IDs continue past recovered ones.
	created, err := s2.Create(context.Background(), "", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if created.ID != "g2" {
		t.Fatalf("post-recovery auto ID = %q, want g2", created.ID)
	}
	var replayed int
	for _, rs := range s2.Recovery() {
		replayed += rs.Records
	}
	if replayed == 0 {
		t.Fatal("recovery replayed no records")
	}
}

// TestSetReshardRecovery boots the persisted state on a larger shard
// count: recovered groups migrate to their new ring owners and nothing
// is lost. (Shrinking is not supported this way — a removed shard's
// store is never opened, so its groups must be drained first; see
// DESIGN.md.)
func TestSetReshardRecovery(t *testing.T) {
	ms := newMemStores()
	s1 := newDurableSet(t, Config{Shards: 2, NewStore: ms.factory})
	ids := seedGroups(t, s1, 12)
	for _, id := range ids[:6] {
		if _, err := s1.Join(context.Background(), id, 15); err != nil {
			t.Fatal(err)
		}
	}
	want := s1.List()

	s2 := newDurableSet(t, Config{Shards: 4, NewStore: ms.factory})
	if got := s2.List(); !reflect.DeepEqual(got, want) {
		t.Fatalf("groups after reshard:\n got %+v\nwant %+v", got, want)
	}
	placementInvariant(t, s2, len(want))
	for _, id := range ids {
		if _, err := s2.Plan(context.Background(), id); err != nil {
			t.Fatalf("plan %q after reshard: %v", id, err)
		}
	}
}

// TestSetBootResolvesDuplicateGroup models a crash between a
// migration's install and its delete, which leaves a group in two shard
// stores. The next boot keeps one copy, the higher generation, on the
// group's ring owner.
func TestSetBootResolvesDuplicateGroup(t *testing.T) {
	ms := newMemStores()
	s1 := newDurableSet(t, Config{Shards: 2, NewStore: ms.factory})
	ctx := context.Background()
	// The stray copy of "fresh" is newer than its owner's; the owner's
	// copy of "stale" is newer than the stray.
	want := map[string]groupd.GroupInfo{}
	for _, id := range []string{"fresh", "stale"} {
		if _, err := s1.Create(ctx, id, 0, []int{1, 2}); err != nil {
			t.Fatal(err)
		}
		owner, _ := s1.locate(id)
		stray, err := s1.Manager(1 - owner.id)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := stray.Create(id, 0, []int{1, 2}); err != nil {
			t.Fatal(err)
		}
		newer := stray
		if id == "stale" {
			newer = owner.gm
		}
		if _, err := newer.Join(id, 7); err != nil {
			t.Fatal(err)
		}
		if want[id], err = newer.Get(id); err != nil {
			t.Fatal(err)
		}
	}
	// No Close: the next boot replays both logs, as after a crash.

	s2 := newDurableSet(t, Config{Shards: 2, NewStore: ms.factory})
	defer s2.Close()
	for id, w := range want {
		got, err := s2.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, w) {
			t.Fatalf("%s after boot:\n got %+v\nwant %+v", id, got, w)
		}
	}
	placementInvariant(t, s2, len(want))
}

// TestSetGracefulRestartOnDisk is the full lifecycle on FileStores:
// Close writes final per-shard snapshots, and a new Set recovers with
// zero log replay and a warm plan cache.
func TestSetGracefulRestartOnDisk(t *testing.T) {
	dir := t.TempDir()
	factory := func(i int) (store.Store, error) {
		return store.OpenFile(filepath.Join(dir, "shard-"+strconv.Itoa(i)), store.FileConfig{})
	}
	s1 := newDurableSet(t, Config{Shards: 3, NewStore: factory})
	ids := seedGroups(t, s1, 9)
	for _, id := range ids {
		if _, err := s1.Plan(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}
	want := s1.List()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := newDurableSet(t, Config{Shards: 3, NewStore: factory})
	defer s2.Close()
	if got := s2.List(); !reflect.DeepEqual(got, want) {
		t.Fatalf("state after graceful restart:\n got %+v\nwant %+v", got, want)
	}
	for _, rs := range s2.Recovery() {
		if rs.Records != 0 {
			t.Fatalf("graceful restart replayed records: %+v", rs)
		}
		if !rs.SnapshotLoaded {
			t.Fatalf("shard recovered without snapshot: %+v", rs)
		}
	}
	for _, id := range ids {
		p, err := s2.Plan(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if !p.Cached {
			t.Fatalf("plan %q after graceful restart missed the recovered cache", id)
		}
	}
}

func TestSetSnapshotAll(t *testing.T) {
	ms := newMemStores()
	s := newDurableSet(t, Config{Shards: 2, NewStore: ms.factory})
	defer s.Close()
	seedGroups(t, s, 6)
	infos, err := s.SnapshotAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("SnapshotAll returned %d infos", len(infos))
	}
	total := 0
	for i, info := range infos {
		if info.Shard != i {
			t.Fatalf("info %d has shard %d", i, info.Shard)
		}
		if info.Bytes <= 0 {
			t.Fatalf("info %d: %+v", i, info)
		}
		total += info.Groups
	}
	if total != 6 {
		t.Fatalf("snapshots cover %d groups, want 6", total)
	}
	for i, st := range ms.stores {
		if !st.HasSnapshot() {
			t.Fatalf("shard %d store has no snapshot", i)
		}
	}
}

func TestSetSnapshotAllWithoutStore(t *testing.T) {
	s := newTestSet(t, Config{Shards: 2})
	if _, err := s.SnapshotAll(); !errors.Is(err, groupd.ErrNoStore) {
		t.Fatalf("SnapshotAll without store: %v", err)
	}
}
