package groupd

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"brsmn/internal/core"
	"brsmn/internal/faultd"
	"brsmn/internal/obs"
	"brsmn/internal/sched"
	"brsmn/internal/swbox"
)

// sweepResult is what a full, non-incremental epoch sweep reports.
type sweepResult struct {
	rounds         []RoundReport
	quarantined    int
	degradedRounds int
}

// fullSweep is the reference epoch: schedule every live group of snaps,
// filter every round through policy (nil for none) and route every round
// on a fresh network. It leaves snaps untouched.
func fullSweep(t *testing.T, n int, snaps []groupSnapshot, policy FaultPolicy) sweepResult {
	t.Helper()
	var reqs []sched.Request
	var ids []string
	for _, sn := range snaps {
		if len(sn.members) > 0 {
			reqs = append(reqs, sched.Request{Source: sn.source, Dests: sn.members})
			ids = append(ids, sn.id)
		}
	}
	roundIdx, err := sched.ScheduleIndices(n, reqs)
	if err != nil {
		t.Fatal(err)
	}
	rounds := make([][]sched.Request, len(roundIdx))
	var res sweepResult
	res.rounds = make([]RoundReport, len(roundIdx))
	for r, members := range roundIdx {
		res.rounds[r].GroupIDs = make([]string, len(members))
		for i, k := range members {
			rounds[r] = append(rounds[r], reqs[k])
			res.rounds[r].GroupIDs[i] = ids[k]
		}
	}
	as, err := sched.Assignments(n, rounds)
	if err != nil {
		t.Fatal(err)
	}
	if policy != nil {
		for r := range as {
			as[r], res.rounds[r].Rejected = policy.FilterAssignment(as[r])
			if len(res.rounds[r].Rejected) > 0 {
				res.quarantined += len(res.rounds[r].Rejected)
				res.degradedRounds++
			}
		}
	}
	nw, err := core.New(n)
	if err != nil {
		t.Fatal(err)
	}
	for r, a := range as {
		routed, err := nw.Route(a)
		if err != nil {
			t.Fatal(err)
		}
		vec := make([]int, n)
		for out, d := range routed.Deliveries {
			vec[out] = d.Source
		}
		res.rounds[r].Deliveries = vec
	}
	return res
}

// runEpochOn runs the manager's epoch body over a caller-frozen
// snapshot, so a test can hand the same snapshot to fullSweep.
func runEpochOn(t *testing.T, m *Manager, snaps []groupSnapshot) *EpochReport {
	t.Helper()
	m.epochMu.Lock()
	defer m.epochMu.Unlock()
	m.pending.Store(0)
	rep, err := m.epochOver(time.Now(), snaps)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// checkAgainstSweep demands the incremental report equal the full sweep
// round for round.
func checkAgainstSweep(t *testing.T, label string, rep *EpochReport, want sweepResult) {
	t.Helper()
	if len(rep.Rounds) != len(want.rounds) {
		t.Fatalf("%s: %d rounds, full sweep %d", label, len(rep.Rounds), len(want.rounds))
	}
	for r := range want.rounds {
		if !reflect.DeepEqual(rep.Rounds[r], want.rounds[r]) {
			t.Fatalf("%s: round %d\nincremental %+v\nfull sweep  %+v", label, r, rep.Rounds[r], want.rounds[r])
		}
	}
	if rep.Quarantined != want.quarantined || rep.DegradedRounds != want.degradedRounds {
		t.Fatalf("%s: quarantined %d over %d rounds, full sweep %d over %d", label,
			rep.Quarantined, rep.DegradedRounds, want.quarantined, want.degradedRounds)
	}
}

// randomMembers draws k distinct outputs of an n-port network.
func randomMembers(rng *rand.Rand, n, k int) []int {
	return rng.Perm(n)[:k]
}

// roundsCounters reads the routed/reused round counters.
func roundsCounters(m *Manager) (routed, reused uint64) {
	return m.met.roundsRouted.Value(), m.met.roundsReused.Value()
}

// TestEpochIncrementalMatchesFullSweep is the differential test of the
// incremental epoch: over seeded churn it must report exactly what a
// full sweep of the same snapshot reports — through an empty registry,
// back-to-back unchanged epochs, a group deleted and recreated under its
// ID with other members, and a fault injected, localized (bumping the
// policy version) and cleared. The manager and the reference each filter
// through their own faultd.Monitor over one shared injector, probed in
// lockstep, so their policies agree. (The manager's monitor also
// filters the epoch's per-group replans, so the monitors' counters are
// compared in faultd's chaos tests, where those replans are mirrored.)
func TestEpochIncrementalMatchesFullSweep(t *testing.T) {
	const (
		n      = 16
		groups = 8
		cycles = 24
	)
	inj := faultd.NewInjector(5)
	newMon := func() *faultd.Monitor {
		mon, err := faultd.NewMonitor(faultd.Config{N: n, ProbeCount: 4}, inj)
		if err != nil {
			t.Fatal(err)
		}
		return mon
	}
	mon, ref := newMon(), newMon()
	m := newTestManager(t, Config{N: n, Policy: mon, Metrics: obs.NewRegistry()})
	rng := rand.New(rand.NewSource(21))

	epoch := func(label string) *EpochReport {
		t.Helper()
		snaps := m.snapshot()
		want := fullSweep(t, n, snaps, ref)
		rep := runEpochOn(t, m, snaps)
		checkAgainstSweep(t, label, rep, want)
		if len(m.memo.rows) > len(rep.Rounds) {
			t.Fatalf("%s: memo holds %d rounds, epoch had %d", label, len(m.memo.rows), len(rep.Rounds))
		}
		return rep
	}
	probe := func() {
		t.Helper()
		for _, mn := range []*faultd.Monitor{mon, ref} {
			if _, err := mn.RunProbes(); err != nil {
				t.Fatal(err)
			}
		}
	}

	epoch("empty registry")
	for g := 0; g < groups; g++ {
		mustCreate(t, m, fmt.Sprintf("g%d", g), rng.Intn(n/2), randomMembers(rng, n, 1+rng.Intn(4)))
	}
	wide := make([]int, 0, n-2)
	for d := 2; d < n; d++ {
		wide = append(wide, d)
	}
	mustCreate(t, m, "wide", n-1, wide)

	var sawReuse, sawDegraded, sawRecreate bool
	for c := 0; c < cycles; c++ {
		label := fmt.Sprintf("cycle %d", c)
		switch {
		case c == 8: // arm a fault and probe until it is localized
			v := mon.Version()
			for _, s := range []swbox.Setting{swbox.Parallel, swbox.Cross} {
				inj.Clear()
				inj.Add(faultd.Fault{Kind: faultd.StuckAt, Col: 5, Switch: 3, Stuck: s})
				for i := 0; i < 3 && mon.Version() == v; i++ {
					probe()
				}
				if mon.Version() != v {
					break
				}
			}
			if mon.Version() == v || ref.Version() != mon.Version() {
				t.Fatalf("fault never localized: versions %d / %d", mon.Version(), ref.Version())
			}
		case c == 16: // clear the fault; the quarantine stays believed
			inj.Clear()
			probe()
		case c%4 == 3: // back-to-back: no change since the last epoch
		default:
			for op := 0; op < 2+rng.Intn(4); op++ {
				id := fmt.Sprintf("g%d", rng.Intn(groups))
				if rng.Intn(8) == 0 {
					if err := m.Delete(id); err != nil {
						t.Fatal(err)
					}
					mustCreate(t, m, id, rng.Intn(n/2), randomMembers(rng, n, 1+rng.Intn(4)))
					sawRecreate = true
					continue
				}
				d := rng.Intn(n)
				if _, err := m.Join(id, d); err != nil {
					if _, err := m.Leave(id, d); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		v := mon.Version()
		versionMoved := m.memo.version != v
		_, reusedBefore := roundsCounters(m)
		rep := epoch(label)
		_, reusedAfter := roundsCounters(m)
		if versionMoved && reusedAfter != reusedBefore {
			t.Fatalf("%s: reused %d rounds across a policy version move", label, reusedAfter-reusedBefore)
		}
		sawReuse = sawReuse || reusedAfter > reusedBefore
		sawDegraded = sawDegraded || rep.DegradedRounds > 0
	}
	if !sawReuse || !sawDegraded || !sawRecreate {
		t.Fatalf("churn missed a case: reuse %v, degraded %v, recreate %v", sawReuse, sawDegraded, sawRecreate)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if m.memo.rows != nil {
		t.Fatal("Close kept the round memo")
	}
}

// TestEpochIncrementalConcurrentJoins runs the differential check while
// other goroutines join, leave, fetch plans and run their own epochs —
// the -race workout for the round memo. Every checked epoch runs over
// the snapshot the reference sweeps, so the reports must still match.
func TestEpochIncrementalConcurrentJoins(t *testing.T) {
	const n = 32
	m := newTestManager(t, Config{N: n})
	rng := rand.New(rand.NewSource(33))
	for g := 0; g < 12; g++ {
		mustCreate(t, m, fmt.Sprintf("g%d", g), rng.Intn(n), randomMembers(rng, n, 1+rng.Intn(6)))
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				id := fmt.Sprintf("g%d", rng.Intn(12))
				switch rng.Intn(8) {
				case 0:
					_, _ = m.Plan(id)
				case 1:
					_, _ = m.RunEpoch()
				default:
					if _, err := m.Join(id, rng.Intn(n)); err != nil {
						_, _ = m.Leave(id, rng.Intn(n))
					}
				}
			}
		}(int64(100 + w))
	}
	for e := 0; e < 20; e++ {
		snaps := m.snapshot()
		want := fullSweep(t, n, snaps, nil)
		checkAgainstSweep(t, fmt.Sprintf("epoch %d", e), runEpochOn(t, m, snaps), want)
	}
	close(stop)
	wg.Wait()
}

// TestEpochMemoBounded pins the memo's footprint: it holds at most the
// last epoch's rounds, shrinks when most groups go, and Close drops it.
func TestEpochMemoBounded(t *testing.T) {
	const n = 64
	m := newTestManager(t, Config{N: n, Metrics: obs.NewRegistry()})
	rng := rand.New(rand.NewSource(9))
	for g := 0; g < 40; g++ {
		mustCreate(t, m, fmt.Sprintf("g%d", g), rng.Intn(n), randomMembers(rng, n, 1+rng.Intn(12)))
	}
	var big int
	for e := 0; e < 3; e++ {
		rep, err := m.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		if len(m.memo.rows) == 0 || len(m.memo.rows) > len(rep.Rounds) {
			t.Fatalf("epoch %d: memo holds %d rounds, epoch had %d", e, len(m.memo.rows), len(rep.Rounds))
		}
		big = len(m.memo.rows)
	}
	if routed, reused := roundsCounters(m); reused != 2*routed {
		t.Fatalf("unchanged epochs routed %d and reused %d rounds, want reuse = 2x routed", routed, reused)
	}
	for g := 0; g < 37; g++ {
		if err := m.Delete(fmt.Sprintf("g%d", g)); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := m.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.memo.rows) > len(rep.Rounds) || len(m.memo.rows) >= big {
		t.Fatalf("after deleting most groups the memo holds %d rounds (was %d), epoch had %d",
			len(m.memo.rows), big, len(rep.Rounds))
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if m.memo.rows != nil {
		t.Fatal("Close kept the round memo")
	}
}
