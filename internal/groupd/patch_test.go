package groupd

import (
	"bytes"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"brsmn/internal/core"
	"brsmn/internal/fabric"
	"brsmn/internal/mcast"
	"brsmn/internal/obs"
	"brsmn/internal/plancodec"
)

// refPlan is the reference plan of one group: a fresh core.Route of its
// single-group assignment, filtered by pol when non-nil, then
// fabric.Flatten and plancodec.Encode.
func refPlan(t *testing.T, n, source int, members []int, pol FaultPolicy) ([]byte, int) {
	t.Helper()
	dests := make([][]int, n)
	dests[source] = members
	a, err := mcast.New(n, dests)
	if err != nil {
		t.Fatal(err)
	}
	if pol != nil {
		a, _ = pol.FilterAssignment(a)
	}
	res, err := core.Route(a)
	if err != nil {
		t.Fatal(err)
	}
	cols, err := fabric.Flatten(res)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := plancodec.Encode(n, cols)
	if err != nil {
		t.Fatal(err)
	}
	return blob, len(cols)
}

// TestPlanPatchMatchesFullReplan is the serving-path differential: a
// manager sees seeded churn and every Plan blob must be byte-identical
// to the reference plan of the group's membership. The churn mixes
// single steps (patchable), bursts past the threshold (fallback),
// deletes and recreates under a reused ID (the stale-route trap), and a
// second group competing for the retained planner.
func TestPlanPatchMatchesFullReplan(t *testing.T) {
	const n = 64
	reg := obs.NewRegistry()
	patched := newTestManager(t, Config{N: n, Metrics: reg})
	rng := rand.New(rand.NewSource(9))

	member := map[string]map[int]bool{}
	source := map[string]int{}
	create := func(id string, src int) {
		mustCreate(t, patched, id, src, nil)
		member[id], source[id] = map[int]bool{}, src
	}
	flip := func(id string, d int) {
		if member[id][d] {
			if _, err := patched.Leave(id, d); err != nil {
				t.Fatal(err)
			}
			delete(member[id], d)
		} else {
			if _, err := patched.Join(id, d); err != nil {
				t.Fatal(err)
			}
			member[id][d] = true
		}
	}
	check := func(id string) {
		t.Helper()
		got, err := patched.Plan(id)
		if err != nil {
			t.Fatalf("patched Plan(%q): %v", id, err)
		}
		var members []int
		for d := range member[id] {
			members = append(members, d)
		}
		slices.Sort(members)
		blob, cols := refPlan(t, n, source[id], members, nil)
		if !bytes.Equal(got.Blob, blob) || got.Columns != cols {
			t.Fatalf("Plan(%q) diverged: %d columns %d bytes vs %d columns %d bytes",
				id, got.Columns, len(got.Blob), cols, len(blob))
		}
	}

	create("a", 0)
	create("b", 1)
	for step := 0; step < 120; step++ {
		id := "a"
		if rng.Intn(4) == 0 {
			id = "b"
		}
		burst := 1
		switch rng.Intn(10) {
		case 0:
			burst = 10 // past the default threshold: must fall back
		case 1:
			burst = 3
		}
		for i := 0; i < burst; i++ {
			flip(id, rng.Intn(n))
		}
		check(id)
		if step == 60 {
			// Recreate "a" under the same ID: the retained route keyed
			// by the old session must not leak into the new group.
			if err := patched.Delete("a"); err != nil {
				t.Fatal(err)
			}
			create("a", 5)
			flip("a", 7)
			check("a")
		}
	}

	hit := patched.met.patched.Value()
	miss := patched.met.patchFull.Value()
	if hit == 0 {
		t.Fatalf("churn never took the patch path (full=%d)", miss)
	}
	if miss == 0 {
		t.Fatalf("churn never fell back to a full replan (patched=%d)", hit)
	}
}

// fakePatchPolicy is a controllable FaultPolicy: drop < 0 is the
// healthy identity filter; drop >= 0 strips that output from every
// destination set (a localized fault).
type fakePatchPolicy struct {
	mu      sync.Mutex
	version uint64
	drop    int
}

func (p *fakePatchPolicy) FilterAssignment(a mcast.Assignment) (mcast.Assignment, []int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.drop < 0 {
		return a, nil
	}
	dests := make([][]int, len(a.Dests))
	hit := false
	for i, ds := range a.Dests {
		for _, d := range ds {
			if d == p.drop {
				hit = true
				continue
			}
			dests[i] = append(dests[i], d)
		}
	}
	if !hit {
		return mcast.Assignment{N: a.N, Dests: dests}, nil
	}
	return mcast.Assignment{N: a.N, Dests: dests}, []int{p.drop}
}

func (p *fakePatchPolicy) Version() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.version
}

func (p *fakePatchPolicy) AfterEpoch(int64) {}

func (p *fakePatchPolicy) set(version uint64, drop int) {
	p.mu.Lock()
	p.version, p.drop = version, drop
	p.mu.Unlock()
}

// TestPlanPatchWithPolicy pins the fault-policy interaction: patching
// runs while the filter is a healthy no-op, stops (full replans, each
// byte-identical to the reference plan of the filtered membership)
// while a fault is localized, and resumes after the fault clears and
// the version moves again.
func TestPlanPatchWithPolicy(t *testing.T) {
	const n = 64
	reg := obs.NewRegistry()
	pol := &fakePatchPolicy{drop: -1}
	m := newTestManager(t, Config{N: n, Metrics: reg, Policy: pol})

	members := []int{1, 3, 5, 7}
	mustCreate(t, m, "g", 0, members)
	step := func(join int) {
		t.Helper()
		if _, err := m.Join("g", join); err != nil {
			t.Fatal(err)
		}
		members = append(members, join)
		slices.Sort(members)
		got, err := m.Plan("g")
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := refPlan(t, n, 0, members, pol); !bytes.Equal(got.Blob, want) {
			t.Fatalf("join %d: plan diverged from the reference plan", join)
		}
	}

	// Healthy policy: the warming Plan seeds a patchable route, churn
	// patches.
	if _, err := m.Plan("g"); err != nil {
		t.Fatal(err)
	}
	step(2)
	if v := m.met.patched.Value(); v != 1 {
		t.Fatalf("healthy churn patched = %d, want 1", v)
	}

	// Localized fault: output 3 is stripped from every plan. The stale
	// retained route (planned under version 0) must not serve, and the
	// filtered reseed must not be marked patchable.
	pol.set(1, 3)
	step(4)
	step(6)
	if v := m.met.patched.Value(); v != 1 {
		t.Fatalf("faulty-policy churn took the patch path (patched = %d)", v)
	}
	if m.patch.ok {
		t.Fatal("retained route marked patchable under an active filter")
	}

	// Fault cleared: the first miss reseeds, the next patches again.
	pol.set(2, -1)
	step(8)
	step(9)
	if v := m.met.patched.Value(); v != 2 {
		t.Fatalf("post-clear churn patched = %d, want 2", v)
	}
}

// TestPlanPatchSingleChurn checks the headline serving-path behavior:
// after one warming Plan, a join-Plan-leave-Plan cycle is served
// entirely by patches, never by a full replan.
func TestPlanPatchSingleChurn(t *testing.T) {
	const n = 256
	reg := obs.NewRegistry()
	m := newTestManager(t, Config{N: n, Metrics: reg})
	members := make([]int, 0, n/2)
	for d := 1; d < n; d += 2 {
		members = append(members, d)
	}
	mustCreate(t, m, "g", 0, members)
	if _, err := m.Plan("g"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		join := i%2 == 0
		var err error
		if join {
			_, err = m.Join("g", 2)
		} else {
			_, err = m.Leave("g", 2)
		}
		if err != nil {
			t.Fatal(err)
		}
		pi, err := m.Plan("g")
		if err != nil {
			t.Fatal(err)
		}
		if pi.Cached {
			t.Fatalf("cycle %d: Plan claimed a cache hit for a fresh generation", i)
		}
	}
	if v := m.met.patched.Value(); v != 20 {
		t.Fatalf("patched count = %d, want 20", v)
	}
	if v := m.met.patchFull.Value(); v != 1 {
		t.Fatalf("full count = %d, want only the warming Plan", v)
	}
	if v := m.met.patchDelta.Count(); v != 20 {
		t.Fatalf("delta histogram count = %d, want 20", v)
	}
	if v := m.met.patchLevel.Count(); v != 20 {
		t.Fatalf("level histogram count = %d, want 20", v)
	}
}

// flipPolicy is a fakePatchPolicy on which a fault at output 3 is
// localized (version 1) right after its first filter: a detection
// landing between a plan's filter and its cache put.
type flipPolicy struct {
	fakePatchPolicy
	once sync.Once
}

func (p *flipPolicy) FilterAssignment(a mcast.Assignment) (mcast.Assignment, []int) {
	out, rejected := p.fakePatchPolicy.FilterAssignment(a)
	p.once.Do(func() { p.set(1, 3) })
	return out, rejected
}

// TestPlanPolicyVersionRace checks that a plan is cached under the
// policy version read before its filter ran: the first Plan, filtered
// while the fabric was healthy, must not be served at version 1, and
// the second must route around output 3.
func TestPlanPolicyVersionRace(t *testing.T) {
	const n = 16
	pol := &flipPolicy{fakePatchPolicy: fakePatchPolicy{drop: -1}}
	m := newTestManager(t, Config{N: n, Policy: pol})
	mustCreate(t, m, "g", 0, []int{1, 3, 5})
	if _, err := m.Plan("g"); err != nil {
		t.Fatal(err)
	}
	pi, err := m.Plan("g")
	if err != nil {
		t.Fatal(err)
	}
	if pi.Cached {
		t.Fatal("Plan at version 1 hit the plan filtered at version 0")
	}
	want, _ := refPlan(t, n, 0, []int{1, 5}, nil)
	if !bytes.Equal(pi.Blob, want) {
		t.Fatal("Plan at version 1 still delivers to output 3")
	}
}

// TestEpochRefreshPatches checks that the epoch's per-group refresh
// takes the patch path: a group planned once and then joined is rolled
// forward by a patch, not routed in full.
func TestEpochRefreshPatches(t *testing.T) {
	m := newTestManager(t, Config{N: 64, Metrics: obs.NewRegistry()})
	mustCreate(t, m, "g", 0, []int{1, 2, 9})
	if _, err := m.Plan("g"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Join("g", 3); err != nil {
		t.Fatal(err)
	}
	before := m.met.patched.Value()
	if _, err := m.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	if got := m.met.patched.Value() - before; got != 1 {
		t.Fatalf("epoch refresh patched %d plans, want 1", got)
	}
	want, _ := refPlan(t, 64, 0, []int{1, 2, 3, 9}, nil)
	if pi, err := m.Plan("g"); err != nil || !pi.Cached || !bytes.Equal(pi.Blob, want) {
		t.Fatalf("Plan after the epoch: cached %v, err %v, or blob differs from the reference", pi.Cached, err)
	}
}
