package groupd

import (
	"errors"
	"slices"
	"testing"

	"brsmn/internal/store"
)

// checkSnapshotMembers demands every snapshot entry carry its session's
// current generation and exactly the tag tree's members.
func checkSnapshotMembers(t *testing.T, m *Manager, label string) {
	t.Helper()
	snaps := m.snapshot()
	if len(snaps) != m.Count() {
		t.Fatalf("%s: snapshot has %d groups, registry %d", label, len(snaps), m.Count())
	}
	for _, sn := range snaps {
		s, err := m.sessionFor(sn.id)
		if err != nil {
			t.Fatal(err)
		}
		s.mu.Lock()
		gen, want := s.gen, s.group.Members()
		s.mu.Unlock()
		if sn.gen != gen || !slices.Equal(sn.members, want) {
			t.Fatalf("%s: group %q snapshot gen %d members %v, tree gen %d members %v",
				label, sn.id, sn.gen, sn.members, gen, want)
		}
	}
}

// TestSnapshotMembersCoherent checks the sessions' per-generation member
// lists against the tag trees after every kind of change. Each check
// snapshots first, so a list cached before the next change must be
// dropped by it.
func TestSnapshotMembersCoherent(t *testing.T) {
	fs := &failStore{MemStore: store.NewMem()}
	m := newDurableManager(t, fs, nil)
	mustCreate(t, m, "a", 1, []int{2, 3})
	mustCreate(t, m, "b", 5, []int{6})
	checkSnapshotMembers(t, m, "create")

	if _, err := m.Join("a", 4); err != nil {
		t.Fatal(err)
	}
	checkSnapshotMembers(t, m, "join")
	if _, err := m.Leave("a", 2); err != nil {
		t.Fatal(err)
	}
	checkSnapshotMembers(t, m, "leave")

	fs.fail = true
	if _, err := m.Join("a", 9); !errors.Is(err, ErrStore) {
		t.Fatalf("join during store failure: %v", err)
	}
	if _, err := m.Leave("a", 3); !errors.Is(err, ErrStore) {
		t.Fatalf("leave during store failure: %v", err)
	}
	fs.fail = false
	checkSnapshotMembers(t, m, "rolled-back append")

	info, err := m.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	info.Members[0] = 15
	for _, gi := range m.List() {
		gi.Members[0] = 15
	}
	checkSnapshotMembers(t, m, "caller wrote its copies")

	if err := m.Delete("b"); err != nil {
		t.Fatal(err)
	}
	mustCreate(t, m, "b", 7, []int{8, 10})
	checkSnapshotMembers(t, m, "delete and re-create")

	// Restart on the same log (no snapshot was written): the replayed
	// trees must match, and an Install over a replayed ID must replace
	// the list with the incoming group's.
	m2 := newDurableManager(t, fs, nil)
	checkSnapshotMembers(t, m2, "log replay")
	for _, id := range []string{"a", "b"} {
		a, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		b, err := m2.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if a.Gen != b.Gen || !slices.Equal(a.Members, b.Members) {
			t.Fatalf("replayed %q: gen %d members %v, want gen %d members %v", id, b.Gen, b.Members, a.Gen, a.Members)
		}
	}
	if err := m2.Install(store.GroupState{ID: "a", Source: 1, Gen: 9, Members: []int{11, 12, 13}}, nil); err != nil {
		t.Fatal(err)
	}
	checkSnapshotMembers(t, m2, "install over an existing ID")
	if got, err := m2.Get("a"); err != nil || got.Gen != 9 || !slices.Equal(got.Members, []int{11, 12, 13}) {
		t.Fatalf("installed group: %+v, %v", got, err)
	}
	if err := m2.Install(store.GroupState{ID: "a", Source: 1, Gen: 3, Members: []int{0}}, nil); err != nil {
		t.Fatal(err)
	}
	checkSnapshotMembers(t, m2, "stale install ignored")
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}
}
