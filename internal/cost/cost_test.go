package cost

import (
	"testing"

	"brsmn/internal/copynet"
	"brsmn/internal/core"
	"brsmn/internal/permnet"
	"brsmn/internal/shuffle"
	"brsmn/internal/workload"
)

// TestBRSMNSwitchesMatchConstruction cross-checks the closed form
// against the switches a routed network actually instantiates: the sum
// over every BSN plan of its two RBNs plus the delivery column.
func TestBRSMNSwitchesMatchConstruction(t *testing.T) {
	for _, n := range []int{4, 8, 32, 128} {
		res, err := core.Route(workload.Broadcast(n, 0))
		if err != nil {
			t.Fatal(err)
		}
		counted := len(res.Final)
		for _, lp := range res.Plans {
			counted += lp.Scatter.NumSwitches() + lp.Quasi.NumSwitches()
		}
		if counted != BRSMNSwitches(n) {
			t.Errorf("n=%d: constructed %d switches, closed form %d", n, counted, BRSMNSwitches(n))
		}
	}
}

// TestBRSMNClosedForms checks the Section 7.4 recurrences:
// C(n) = n log n (per level, both RBNs) summed = n(log^2 n + log n - 2)/2 + n/2
// and D(n) = log^2 n + log n - 3.
func TestBRSMNClosedForms(t *testing.T) {
	for _, n := range []int{4, 8, 64, 1024} {
		m := shuffle.Log2(n)
		wantSw := 0
		for j := 2; j <= m; j++ {
			wantSw += n * j // level with size 2^j: 2 RBNs x (n/2) log switches
		}
		wantSw += n / 2
		if got := BRSMNSwitches(n); got != wantSw {
			t.Errorf("n=%d: switches %d, want %d", n, got, wantSw)
		}
		wantD := 1
		for j := 2; j <= m; j++ {
			wantD += 2 * j
		}
		if got := BRSMNDepth(n); got != wantD {
			t.Errorf("n=%d: depth %d, want %d", n, got, wantD)
		}
	}
}

// TestFeedbackVsUnrolled checks the Section 7.3 saving: the feedback
// network's switch count is one RBN, a log n factor below the unrolled
// network.
func TestFeedbackVsUnrolled(t *testing.T) {
	for _, n := range []int{8, 64, 1024} {
		fb, un := Feedback(n), BRSMN(n)
		if fb.Switches != RBNSwitches(n) {
			t.Errorf("n=%d: feedback switches %d, want %d", n, fb.Switches, RBNSwitches(n))
		}
		if fb.Switches >= un.Switches {
			t.Errorf("n=%d: feedback (%d) not cheaper than unrolled (%d)", n, fb.Switches, un.Switches)
		}
		if fb.RoutingTime < un.RoutingTime {
			t.Errorf("n=%d: feedback routing faster than unrolled", n)
		}
	}
}

// TestPermNetMatchesConstruction cross-checks against package permnet.
func TestPermNetMatchesConstruction(t *testing.T) {
	for _, n := range []int{4, 16, 256} {
		if got, want := PermNet(n).Switches, permnet.Switches(n); got != want {
			t.Errorf("n=%d: %d vs permnet's %d", n, got, want)
		}
	}
}

// TestCopyNetMatchesConstruction cross-checks against package copynet.
func TestCopyNetMatchesConstruction(t *testing.T) {
	for _, n := range []int{4, 16, 256} {
		cn, err := copynet.New(n)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := CopyNetSwitches(n), cn.Switches(); got != want {
			t.Errorf("n=%d: %d vs copynet's %d", n, got, want)
		}
		if got, want := CopyNet(n).Depth, cn.Depth(); got != want {
			t.Errorf("n=%d: depth %d vs copynet's %d", n, got, want)
		}
	}
}

// TestTable2Shape checks the qualitative relations of Table 2 hold in
// the concrete models across a size sweep:
//   - all four rows cost Θ(n log^2 n) except feedback at Θ(n log n);
//   - the new design's routing time is Θ(log^2 n) while the prior
//     networks' models are Θ(log^3 n), so the ratio diverges;
//   - depths are all Θ(log^2 n).
func TestTable2Shape(t *testing.T) {
	type band struct{ lo, hi float64 }
	check := func(name string, vals []float64, b band) {
		t.Helper()
		for _, v := range vals {
			if v < b.lo || v > b.hi {
				t.Errorf("%s: normalized series %v leaves band [%v,%v]", name, vals, b.lo, b.hi)
				return
			}
		}
	}
	var newCost, fbCost, newTime, priorTime, newDepth []float64
	for n := 16; n <= 1<<12; n *= 4 {
		rows := Table2(n)
		ns, lo, brsmn, fb := rows[0], rows[1], rows[2], rows[3]
		_ = lo
		newCost = append(newCost, NormalizedGrowth(n, float64(brsmn.Switches), "nlog2n"))
		fbCost = append(fbCost, NormalizedGrowth(n, float64(fb.Switches), "nlogn"))
		newTime = append(newTime, NormalizedGrowth(n, float64(brsmn.RoutingTime), "log2n"))
		priorTime = append(priorTime, NormalizedGrowth(n, float64(ns.RoutingTime), "log3n"))
		newDepth = append(newDepth, NormalizedGrowth(n, float64(brsmn.Depth), "log2n"))
	}
	check("BRSMN cost / n log^2 n", newCost, band{0.2, 2})
	check("feedback cost / n log n", fbCost, band{0.2, 2})
	check("BRSMN routing / log^2 n", newTime, band{1, 16})
	check("prior routing / log^3 n", priorTime, band{0.5, 2})
	check("BRSMN depth / log^2 n", newDepth, band{0.3, 3})
}

// TestNormalizedGrowth covers the helper including the unknown key.
func TestNormalizedGrowth(t *testing.T) {
	if NormalizedGrowth(16, 32, "n") != 2 {
		t.Error("n normalization wrong")
	}
	if NormalizedGrowth(16, 64, "nlogn") != 1 {
		t.Error("nlogn normalization wrong")
	}
	if NormalizedGrowth(16, 256, "n2") != 1 {
		t.Error("n2 normalization wrong")
	}
	if NormalizedGrowth(16, 16, "log2n") != 1 {
		t.Error("log2n normalization wrong")
	}
	if v := NormalizedGrowth(16, 1, "nonsense"); v == v { // NaN check
		t.Error("unknown growth did not return NaN")
	}
}

// TestCrossbarRow pins the trivial baseline.
func TestCrossbarRow(t *testing.T) {
	r := Crossbar(8)
	if r.Switches != 64 || r.Depth != 1 || r.RoutingTime != 8 {
		t.Errorf("Crossbar(8) = %+v", r)
	}
}

// TestGCNImplementedRow checks the functional GCN's cost row sits in the
// Θ(n log² n) band and exceeds the feedback BRSMN's.
func TestGCNImplementedRow(t *testing.T) {
	for _, n := range []int{16, 256, 4096} {
		r := GCNImplemented(n)
		if NormalizedGrowth(n, float64(r.Switches), "nlog2n") < 0.3 ||
			NormalizedGrowth(n, float64(r.Switches), "nlog2n") > 2 {
			t.Errorf("n=%d: GCN switches %d outside the n·lg²n band", n, r.Switches)
		}
		if r.Switches <= Feedback(n).Switches {
			t.Errorf("n=%d: GCN not costlier than feedback BRSMN", n)
		}
		if r.RoutingTime <= BRSMN(n).RoutingTime && n >= 256 {
			t.Errorf("n=%d: centralized GCN routing not slower than distributed", n)
		}
	}
}

// TestNassimiSahniK checks the k-parameter model endpoints: k = 1 is the
// n²-cost crossbar-like point; k = log n lands at the Table 2 order; k
// clamps into [1, log n].
func TestNassimiSahniK(t *testing.T) {
	n := 1024
	m := 10
	k1 := NassimiSahniK(n, 1)
	if k1.Switches != n*n*m || k1.Depth != m {
		t.Errorf("k=1 row %+v", k1)
	}
	kM := NassimiSahniK(n, m)
	// n^(1+1/m) = n·2 at n = 2^m, so cost = m·2n·m = 2n·m².
	if kM.Switches != 2*n*m*m {
		t.Errorf("k=log n switches %d, want %d", kM.Switches, 2*n*m*m)
	}
	if kM.RoutingTime != m*m*m {
		t.Errorf("k=log n routing %d, want %d", kM.RoutingTime, m*m*m)
	}
	if NassimiSahniK(n, 0) != NassimiSahniK(n, 1) || NassimiSahniK(n, 99) != NassimiSahniK(n, m) {
		t.Error("k clamping wrong")
	}
	// k·n^(1+1/k) falls steeply from k = 1 and has its minimum near
	// k ≈ ln n before the leading k factor takes over: k = 1 must be
	// the maximum and the interior minimum must undercut both ends.
	minSw, argmin := k1.Switches, 1
	for k := 2; k <= m; k++ {
		cur := NassimiSahniK(n, k).Switches
		if cur < minSw {
			minSw, argmin = cur, k
		}
		if cur > k1.Switches {
			t.Errorf("k=%d costlier than k=1", k)
		}
	}
	if argmin <= 1 || argmin >= m {
		t.Errorf("cost minimum at k=%d; expected an interior minimum near ln n", argmin)
	}
	if minSw >= kM.Switches {
		t.Errorf("interior minimum %d not below the k=log n endpoint %d", minSw, kM.Switches)
	}
}
