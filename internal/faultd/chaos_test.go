package faultd

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"brsmn/internal/bsn"
	"brsmn/internal/core"
	"brsmn/internal/fabric"
	"brsmn/internal/groupd"
	"brsmn/internal/mcast"
	"brsmn/internal/sched"
	"brsmn/internal/swbox"
)

// chaosRig is the full serving stack under test: a group manager whose
// fault policy is a Monitor, probing every epoch, with the shared
// injector standing in for the (possibly faulty) hardware.
type chaosRig struct {
	inj *Injector
	mon *Monitor
	gm  *groupd.Manager
	rng *rand.Rand
	n   int
}

func newChaosRig(t *testing.T, n int) *chaosRig {
	t.Helper()
	inj := NewInjector(11)
	mon, err := NewMonitor(Config{N: n, ProbeCount: 4, ProbeEvery: 1}, inj)
	if err != nil {
		t.Fatal(err)
	}
	gm, err := groupd.NewManager(groupd.Config{N: n, Policy: mon})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gm.Close() })
	return &chaosRig{inj: inj, mon: mon, gm: gm, rng: rand.New(rand.NewSource(7)), n: n}
}

// churn flips random memberships of the named groups, the same machinery
// the groupd churn soak uses.
func (rig *chaosRig) churn(t *testing.T, ids []string, ops int) {
	t.Helper()
	for op := 0; op < ops; op++ {
		id := ids[rig.rng.Intn(len(ids))]
		d := rig.rng.Intn(rig.n)
		g, err := rig.gm.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		joined := false
		for _, mem := range g.Members {
			if mem == d {
				joined = true
				break
			}
		}
		if joined {
			if _, err := rig.gm.Leave(id, d); err != nil {
				t.Fatal(err)
			}
		} else if _, err := rig.gm.Join(id, d); err != nil {
			t.Fatal(err)
		}
	}
}

// verifyChaosEpoch replays each round of an epoch report through the
// real (faulty) injector and demands 100% delivery of every output the
// round kept, plus exact membership accounting: each round's members
// are either delivered or listed as rejected, never silently lost.
func verifyChaosEpoch(t *testing.T, rig *chaosRig, rep *groupd.EpochReport) {
	t.Helper()
	var e fabric.Executor
	for r, round := range rep.Rounds {
		dests := make([][]int, rig.n)
		kept := 0
		for out, src := range round.Deliveries {
			if src >= 0 {
				dests[src] = append(dests[src], out)
				kept++
			}
		}
		for _, out := range round.Rejected {
			if round.Deliveries[out] >= 0 {
				t.Fatalf("round %d output %d both delivered and rejected", r, out)
			}
		}
		want := 0
		for _, id := range round.GroupIDs {
			g, err := rig.gm.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			want += g.Size
		}
		if kept+len(round.Rejected) != want {
			t.Fatalf("round %d lost members: %d delivered + %d rejected != %d requested",
				r, kept, len(round.Rejected), want)
		}
		if kept == 0 {
			continue
		}
		// The router is deterministic, so re-routing the kept assignment
		// reproduces exactly the plan the quarantine planner vetted.
		a, err := mcast.New(rig.n, dests)
		if err != nil {
			t.Fatalf("round %d delivery vector is not a valid assignment: %v", r, err)
		}
		res, err := core.Route(a)
		if err != nil {
			t.Fatalf("round %d re-route: %v", r, err)
		}
		cols, err := fabric.Flatten(res)
		if err != nil {
			t.Fatal(err)
		}
		cells, err := bsn.CellsForAssignment(a)
		if err != nil {
			t.Fatal(err)
		}
		got := rig.inj.Deliveries(&e, cols, cells)
		for out := range got {
			if got[out] != round.Deliveries[out] {
				t.Fatalf("round %d output %d: faulty fabric delivered %d, epoch promised %d",
					r, out, got[out], round.Deliveries[out])
			}
		}
	}
}

// TestChaosFaultMidChurn is the end-to-end soak: clean churn, then a
// stuck-at fault injected mid-churn; the per-epoch probes must detect it
// within budget, the localizer must pin the true (column, switch) among
// its candidates, and every post-quarantine epoch must deliver 100% of
// its non-rejected outputs through the faulty fabric.
func TestChaosFaultMidChurn(t *testing.T) {
	const (
		n                  = 16
		groups             = 6
		cleanCycles        = 3
		faultCycles        = 5
		detectBudgetEpochs = 2
	)
	rig := newChaosRig(t, n)
	ids := make([]string, groups)
	for g := range ids {
		ids[g] = fmt.Sprintf("g%d", g)
		if _, err := rig.gm.Create(ids[g], rig.rng.Intn(n/2), nil); err != nil {
			t.Fatal(err)
		}
	}
	// A wide static group keeps the fabric loaded so the suspect region
	// always carries traffic once the fault is localized.
	wide := make([]int, 0, n-2)
	for d := 2; d < n; d++ {
		wide = append(wide, d)
	}
	if _, err := rig.gm.Create("wide", n-1, wide); err != nil {
		t.Fatal(err)
	}

	for c := 0; c < cleanCycles; c++ {
		rig.churn(t, ids, 3*groups)
		rep, err := rig.gm.RunEpoch()
		if err != nil {
			t.Fatalf("clean cycle %d: %v", c, err)
		}
		verifyChaosEpoch(t, rig, rep)
	}
	if rig.mon.Stats().Detected {
		t.Fatal("clean fabric reported a fault")
	}

	// Inject mid-churn. One of the two unicast stuck values must
	// disagree with some probe's plan at this switch.
	truth := Fault{Kind: StuckAt, Col: 5, Switch: 3}
	detected := false
	epochsUsed := 0
	for _, s := range []swbox.Setting{swbox.Parallel, swbox.Cross} {
		rig.inj.Clear()
		truth.Stuck = s
		rig.inj.Add(truth)
		for e := 0; e < detectBudgetEpochs && !detected; e++ {
			rig.churn(t, ids, groups)
			if _, err := rig.gm.RunEpoch(); err != nil {
				t.Fatal(err)
			}
			epochsUsed++
			detected = rig.mon.Stats().Detected
		}
		if detected {
			break
		}
	}
	if !detected {
		t.Fatalf("stuck fault at (%d,%d) undetected after %d probe epochs", truth.Col, truth.Switch, epochsUsed)
	}

	rep := rig.mon.Report()
	found := false
	for _, c := range rep.Candidates {
		if c.Col == truth.Col && c.Switch == truth.Switch {
			found = true
		}
	}
	if !found {
		t.Fatalf("true fault (%d,%d) not among candidates %v", truth.Col, truth.Switch, rep.Candidates)
	}

	// Degraded phase: churn on, and every epoch must keep its delivery
	// promises through the still-faulty fabric.
	sawQuarantine := false
	for c := 0; c < faultCycles; c++ {
		rig.churn(t, ids, 2*groups)
		erep, err := rig.gm.RunEpoch()
		if err != nil {
			t.Fatalf("degraded cycle %d: %v", c, err)
		}
		if erep.Quarantined > 0 {
			if erep.DegradedRounds == 0 {
				t.Fatalf("epoch %d quarantined %d outputs across zero rounds", erep.Epoch, erep.Quarantined)
			}
			sawQuarantine = true
		}
		verifyChaosEpoch(t, rig, erep)
	}
	st := rig.mon.Stats()
	if !sawQuarantine || st.DegradedReplans == 0 {
		t.Fatalf("degraded phase never exercised quarantine: %+v", st)
	}
	if st.DetectedAtProbe == 0 {
		t.Fatalf("no time-to-detect recorded: %+v", st)
	}
}

// TestChaosConcurrentChurn runs the fault loop under the race detector's
// worst conditions: a background epoch loop probing every epoch, many
// goroutines churning memberships, and the fault set mutating midway.
func TestChaosConcurrentChurn(t *testing.T) {
	const n = 16
	inj := NewInjector(13)
	mon, err := NewMonitor(Config{N: n, ProbeCount: 2, ProbeEvery: 1}, inj)
	if err != nil {
		t.Fatal(err)
	}
	gm, err := groupd.NewManager(groupd.Config{
		N:           n,
		EpochPeriod: time.Millisecond,
		Policy:      mon,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gm.Close()
	for g := 0; g < 4; g++ {
		if _, err := gm.Create(fmt.Sprintf("g%d", g), g, nil); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func(seed int64) {
			defer func() { done <- struct{}{} }()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				id := fmt.Sprintf("g%d", rng.Intn(4))
				if rng.Intn(2) == 0 {
					_, _ = gm.Join(id, rng.Intn(n))
				} else {
					_, _ = gm.Leave(id, rng.Intn(n))
				}
			}
		}(int64(w))
	}

	// Arm a fault mid-churn and wait for the per-epoch probes to catch
	// it, flipping the stuck value if the first one is unexciting.
	deadline := time.Now().Add(10 * time.Second)
	detected := false
	for _, s := range []swbox.Setting{swbox.Parallel, swbox.Cross} {
		inj.Clear()
		inj.Add(Fault{Kind: StuckAt, Col: 2, Switch: 1, Stuck: s})
		for time.Now().Before(deadline) {
			if mon.Stats().Detected {
				detected = true
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
		if detected {
			break
		}
	}
	close(stop)
	for w := 0; w < 4; w++ {
		<-done
	}
	if !detected {
		t.Fatal("background probing never detected the stuck fault")
	}
	if _, err := gm.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	if rep := gm.LastEpoch(); rep == nil || rep.Err != "" {
		t.Fatalf("final epoch report = %+v", rep)
	}
}

// TestChaosIncrementalEpochCounters pins the fault-path side effects of
// incremental epochs. With a localized fault degrading some rounds, two
// consecutive epochs must leave the monitor's DegradedReplans and
// quarantined outputs exactly where a full sweep leaves a twin monitor:
// a degraded round is re-filtered every epoch, never reused. The twin
// shares the injector and is probed in lockstep, and it mirrors the
// epoch's per-group replans, which the first epoch after localization
// makes for every group (its plan-cache keys carry the new version).
func TestChaosIncrementalEpochCounters(t *testing.T) {
	const n = 16
	inj := NewInjector(11)
	newMon := func() *Monitor {
		mon, err := NewMonitor(Config{N: n, ProbeCount: 4}, inj)
		if err != nil {
			t.Fatal(err)
		}
		return mon
	}
	mon, ref := newMon(), newMon()
	gm, err := groupd.NewManager(groupd.Config{N: n, Policy: mon})
	if err != nil {
		t.Fatal(err)
	}
	defer gm.Close()
	rng := rand.New(rand.NewSource(7))
	for g := 0; g < 6; g++ {
		if _, err := gm.Create(fmt.Sprintf("g%d", g), rng.Intn(n/2), rng.Perm(n)[:1+rng.Intn(4)]); err != nil {
			t.Fatal(err)
		}
	}
	wide := make([]int, 0, n-2)
	for d := 2; d < n; d++ {
		wide = append(wide, d)
	}
	if _, err := gm.Create("wide", n-1, wide); err != nil {
		t.Fatal(err)
	}
	if _, err := gm.RunEpoch(); err != nil { // clean: nothing filtered
		t.Fatal(err)
	}

	for _, s := range []swbox.Setting{swbox.Parallel, swbox.Cross} {
		inj.Clear()
		inj.Add(Fault{Kind: StuckAt, Col: 5, Switch: 3, Stuck: s})
		for i := 0; i < 3 && !mon.Stats().Detected; i++ {
			for _, mn := range []*Monitor{mon, ref} {
				if _, err := mn.RunProbes(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if mon.Stats().Detected {
			break
		}
	}
	if !mon.Stats().Detected || mon.Version() != ref.Version() {
		t.Fatalf("fault not localized in lockstep: %+v / %+v", mon.Stats(), ref.Stats())
	}

	// fullSweep filters every round of the registry's schedule through
	// ref, plus each group's standalone assignment when replans is set.
	fullSweep := func(replans bool) (rejected [][]int) {
		var reqs []sched.Request
		for _, g := range gm.List() {
			if g.Size == 0 {
				continue
			}
			reqs = append(reqs, sched.Request{Source: g.Source, Dests: g.Members})
			if replans {
				dests := make([][]int, n)
				dests[g.Source] = g.Members
				ref.FilterAssignment(mcast.MustNew(n, dests))
			}
		}
		roundIdx, err := sched.ScheduleIndices(n, reqs)
		if err != nil {
			t.Fatal(err)
		}
		rounds := make([][]sched.Request, len(roundIdx))
		for r, members := range roundIdx {
			for _, k := range members {
				rounds[r] = append(rounds[r], reqs[k])
			}
		}
		as, err := sched.Assignments(n, rounds)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range as {
			_, rej := ref.FilterAssignment(a)
			rejected = append(rejected, rej)
		}
		return rejected
	}

	for e, replans := range []bool{true, false} {
		rep, err := gm.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		want := fullSweep(replans)
		if len(rep.Rounds) != len(want) {
			t.Fatalf("epoch %d: %d rounds, full sweep %d", e, len(rep.Rounds), len(want))
		}
		degraded := 0
		for r, rr := range rep.Rounds {
			if !reflect.DeepEqual(rr.Rejected, want[r]) {
				t.Fatalf("epoch %d round %d rejected %v, full sweep %v", e, r, rr.Rejected, want[r])
			}
			if len(want[r]) > 0 {
				degraded++
			}
		}
		if degraded == 0 || rep.DegradedRounds != degraded {
			t.Fatalf("epoch %d: %d degraded rounds reported, full sweep %d", e, rep.DegradedRounds, degraded)
		}
		got, exp := mon.Stats(), ref.Stats()
		if got.DegradedReplans != exp.DegradedReplans || got.QuarantinedOuts != exp.QuarantinedOuts {
			t.Fatalf("epoch %d: monitor %+v, full-sweep monitor %+v", e, got, exp)
		}
		if q, qr := mon.Report().Quarantined, ref.Report().Quarantined; !reflect.DeepEqual(q, qr) {
			t.Fatalf("epoch %d: quarantined outputs %v, full sweep %v", e, q, qr)
		}
	}
}
