// Benchmarks regenerating the measurable side of every table and figure
// of the paper (see DESIGN.md's experiment index and EXPERIMENTS.md for
// recorded results). Table 2's routing-time ordering — the new design's
// distributed O(log^2 n) setting versus centralized baselines — shows up
// here as wall-clock per-assignment routing costs; the gate-delay units
// of the paper are measured separately by the cycle-accurate model in
// internal/gates (BenchmarkFig12 and the harness sweeps).
package brsmn_test

import (
	"fmt"
	"math/rand"
	"testing"

	"brsmn"
	"brsmn/internal/benes"
	"brsmn/internal/bitonic"
	"brsmn/internal/circuit"
	"brsmn/internal/copynet"
	"brsmn/internal/core"
	"brsmn/internal/diagnosis"
	"brsmn/internal/gates"
	"brsmn/internal/gcn"
	"brsmn/internal/hdrstream"
	"brsmn/internal/mcast"
	"brsmn/internal/paths"
	"brsmn/internal/rbn"
	"brsmn/internal/tag"
	"brsmn/internal/workload"
	"brsmn/internal/xbar"
)

var benchSizes = []int{64, 256, 1024}

// benchAssignments pre-draws a pool of random assignments so the
// generators stay out of the measured loop.
func benchAssignments(n int) []mcast.Assignment {
	rng := rand.New(rand.NewSource(7))
	out := make([]mcast.Assignment, 16)
	for i := range out {
		out[i] = workload.Random(rng, n, 0.8, 0.5)
	}
	return out
}

// BenchmarkTable1Encoding measures the tag encode/decode pair of
// Table 1.
func BenchmarkTable1Encoding(b *testing.B) {
	b.ReportAllocs()
	vals := []tag.Value{tag.V0, tag.V1, tag.Alpha, tag.Eps, tag.Eps0, tag.Eps1}
	for i := 0; i < b.N; i++ {
		v := vals[i%len(vals)]
		bits := tag.Encode(v)
		if _, err := tag.Decode(bits, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2BRSMN routes random multicast assignments through the
// unrolled network — the "new design" row of Table 2.
func BenchmarkTable2BRSMN(b *testing.B) {
	b.ReportAllocs()
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			nw, err := brsmn.New(n)
			if err != nil {
				b.Fatal(err)
			}
			as := benchAssignments(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := nw.Route(as[i%len(as)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable2Feedback routes the same traffic through the feedback
// implementation — the "feedback version" row of Table 2 (Fig. 13).
func BenchmarkTable2Feedback(b *testing.B) {
	b.ReportAllocs()
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			nw, err := brsmn.NewFeedback(n)
			if err != nil {
				b.Fatal(err)
			}
			as := benchAssignments(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := nw.Route(as[i%len(as)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable2CopyNet routes the same traffic through the centralized
// copy-network + Benes baseline (stand-in for the prior recursively
// decomposed designs; see DESIGN.md substitutions).
func BenchmarkTable2CopyNet(b *testing.B) {
	b.ReportAllocs()
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			nw, err := copynet.New(n)
			if err != nil {
				b.Fatal(err)
			}
			as := benchAssignments(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := nw.Route(as[i%len(as)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable2Crossbar routes through the O(n^2) crossbar oracle.
func BenchmarkTable2Crossbar(b *testing.B) {
	b.ReportAllocs()
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			xb, err := xbar.New(n)
			if err != nil {
				b.Fatal(err)
			}
			as := benchAssignments(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := xb.Route(as[i%len(as)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable3BitSort measures the Table 3 distributed bit-sorting
// algorithm (plan computation only).
func BenchmarkTable3BitSort(b *testing.B) {
	b.ReportAllocs()
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			rng := rand.New(rand.NewSource(8))
			gamma := make([]bool, n)
			for i := range gamma {
				gamma[i] = rng.Intn(2) == 1
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := rbn.BitSortPlan(n, gamma, i%n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable4Scatter measures the Table 4/5 distributed scatter
// algorithm.
func BenchmarkTable4Scatter(b *testing.B) {
	b.ReportAllocs()
	vals := []tag.Value{tag.V0, tag.V1, tag.Alpha, tag.Eps}
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			rng := rand.New(rand.NewSource(9))
			tags := make([]tag.Value, n)
			for i := range tags {
				tags[i] = vals[rng.Intn(4)]
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := rbn.ScatterPlan(n, tags, i%n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable6EpsDivide measures the Table 6 ε-dividing algorithm.
func BenchmarkTable6EpsDivide(b *testing.B) {
	b.ReportAllocs()
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			rng := rand.New(rand.NewSource(10))
			tags := make([]tag.Value, n)
			perm := rng.Perm(n)
			for i := 0; i < n/2; i++ {
				tags[perm[i]] = tag.V0
			}
			for i := n / 2; i < 3*n/4; i++ {
				tags[perm[i]] = tag.V1
			}
			for _, i := range perm[3*n/4:] {
				tags[i] = tag.Eps
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := rbn.EpsDivide(tags); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig2Example routes the paper's running 8x8 example.
func BenchmarkFig2Example(b *testing.B) {
	b.ReportAllocs()
	nw, err := brsmn.New(8)
	if err != nil {
		b.Fatal(err)
	}
	a := brsmn.Fig2Assignment()
	for i := 0; i < b.N; i++ {
		if _, err := nw.Route(a); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9TagSequence measures routing-tag sequence encoding
// (Figs. 9 and 11 wire format).
func BenchmarkFig9TagSequence(b *testing.B) {
	b.ReportAllocs()
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			rng := rand.New(rand.NewSource(11))
			dests := rng.Perm(n)[:n/4]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := mcast.SequenceFromDests(n, dests); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig10SequenceSplit measures the alternating split of Fig. 10.
func BenchmarkFig10SequenceSplit(b *testing.B) {
	b.ReportAllocs()
	seq, err := mcast.SequenceFromDests(1024, []int{1, 17, 333, 512, 800})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		mcast.SplitSequence(seq[1:])
	}
}

// BenchmarkFig12ForwardSweep measures the cycle-accurate pipelined adder
// tree simulation behind the routing-time column.
func BenchmarkFig12ForwardSweep(b *testing.B) {
	b.ReportAllocs()
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			leaves := make([]int, n)
			for i := range leaves {
				leaves[i] = i % 2
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := gates.ForwardSweep(leaves); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationCentralizedSetting compares computing switch settings
// for a full permutation with the paper's distributed algorithm
// (permutation network, quasisort passes) against the centralized Benes
// looping algorithm — the design choice Table 2's routing-time column is
// about.
func BenchmarkAblationCentralizedSetting(b *testing.B) {
	b.ReportAllocs()
	for _, n := range benchSizes {
		rng := rand.New(rand.NewSource(13))
		perm := rng.Perm(n)
		b.Run(fmt.Sprintf("distributed/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := brsmn.RoutePermutation(perm); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("centralized-benes/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := benes.RoutePermutation(perm); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationScatterless compares full-BRSMN routing of a
// permutation against the scatter-less unicast specialization — the cost
// ablation of the permutation network (half the hardware, same result on
// unicast traffic).
func BenchmarkAblationScatterless(b *testing.B) {
	b.ReportAllocs()
	n := 256
	rng := rand.New(rand.NewSource(14))
	perm := rng.Perm(n)
	a, err := brsmn.PermutationAssignment(perm)
	if err != nil {
		b.Fatal(err)
	}
	nw, err := brsmn.New(n)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("full-brsmn", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := nw.Route(a); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("permnet", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := brsmn.RoutePermutation(perm); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig13Passes measures the per-pass overhead of the feedback
// implementation on the maximum-split workload.
func BenchmarkFig13Passes(b *testing.B) {
	b.ReportAllocs()
	n := 256
	a, err := brsmn.MaxSplitAssignment(n, 16)
	if err != nil {
		b.Fatal(err)
	}
	nw, err := brsmn.NewFeedback(n)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := nw.Route(a); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRoutingDelayModel evaluates the gate-delay model itself.
func BenchmarkRoutingDelayModel(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if d := brsmn.RoutingDelay(1024); d <= 0 {
			b.Fatal("nonpositive delay")
		}
	}
}

// BenchmarkAblationQuasisortVsBitonic compares the paper's quasisorting
// approach (ε-divide + bit-sort on an RBN: (n/2)·log n switches, log n
// depth, but a setting computation) against a Batcher bitonic sorter
// (no setting computation, Θ(n log² n) comparators at Θ(log² n) depth) —
// the design choice behind using RBNs for every component.
func BenchmarkAblationQuasisortVsBitonic(b *testing.B) {
	b.ReportAllocs()
	for _, n := range benchSizes {
		rng := rand.New(rand.NewSource(15))
		tags := make([]tag.Value, n)
		perm := rng.Perm(n)
		for i := 0; i < n/3; i++ {
			tags[perm[i]] = tag.V0
		}
		for i := n / 3; i < 2*n/3; i++ {
			tags[perm[i]] = tag.V1
		}
		for _, i := range perm[2*n/3:] {
			tags[i] = tag.Eps
		}
		b.Run(fmt.Sprintf("rbn/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := rbn.QuasisortRoute(n, tags); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("bitonic/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			bit := func(v tag.Value) int {
				switch v {
				case tag.V0:
					return 0
				case tag.V1:
					return 1
				}
				return -1
			}
			for i := 0; i < b.N; i++ {
				if _, _, err := bitonic.Quasisort(tags, bit); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPipelinedThroughput measures the pipelined fabric simulator:
// a batch of assignments streamed one column apart (Section 7's
// pipelined operation).
func BenchmarkPipelinedThroughput(b *testing.B) {
	b.ReportAllocs()
	n := 64
	rng := rand.New(rand.NewSource(16))
	as := make([]mcast.Assignment, 8)
	for i := range as {
		as[i] = workload.Random(rng, n, 0.8, 0.5)
	}
	pub := make([]brsmn.Assignment, len(as))
	for i := range as {
		pub[i] = as[i]
	}
	for i := 0; i < b.N; i++ {
		if _, err := brsmn.RoutePipelined(pub, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScheduleAndRoute measures the admission-control extension on
// a conflicted batch.
func BenchmarkScheduleAndRoute(b *testing.B) {
	b.ReportAllocs()
	n := 64
	rng := rand.New(rand.NewSource(17))
	reqs := make([]brsmn.Request, n)
	for i := range reqs {
		k := 1 + rng.Intn(n/4)
		reqs[i] = brsmn.Request{Source: rng.Intn(n), Dests: rng.Perm(n)[:k]}
	}
	for i := 0; i < b.N; i++ {
		if _, err := brsmn.ScheduleAndRoute(n, reqs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2GCN routes the same traffic through the implemented
// Nassimi–Sahni-style generalized connection network.
func BenchmarkTable2GCN(b *testing.B) {
	b.ReportAllocs()
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			nw, err := gcn.New(n)
			if err != nil {
				b.Fatal(err)
			}
			as := benchAssignments(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := nw.Route(as[i%len(as)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRouteBatchWorkers measures the concurrent stream controller
// at several worker counts.
func BenchmarkRouteBatchWorkers(b *testing.B) {
	b.ReportAllocs()
	n := 128
	rng := rand.New(rand.NewSource(18))
	as := make([]brsmn.Assignment, 8)
	for i := range as {
		as[i] = brsmn.RandomAssignment(rng, n, 0.8, 0.5)
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := brsmn.RouteBatch(n, as, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGroupChurn measures incremental membership updates against
// full tree rebuilds.
func BenchmarkGroupChurn(b *testing.B) {
	b.ReportAllocs()
	n := 1024
	b.Run("incremental", func(b *testing.B) {
		b.ReportAllocs()
		g, err := brsmn.NewGroup(n, 0)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			d := i % (n - 1)
			if g.Contains(d) {
				if err := g.Leave(d); err != nil {
					b.Fatal(err)
				}
			} else {
				if err := g.Join(d); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("rebuild", func(b *testing.B) {
		b.ReportAllocs()
		members := map[int]bool{}
		for i := 0; i < b.N; i++ {
			d := i % (n - 1)
			if members[d] {
				delete(members, d)
			} else {
				members[d] = true
			}
			dests := make([]int, 0, len(members))
			for m := range members {
				dests = append(dests, m)
			}
			if _, err := mcast.SequenceFromDests(n, dests); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEdgeDisjointVerify measures the paths extraction/verification
// layer.
func BenchmarkEdgeDisjointVerify(b *testing.B) {
	b.ReportAllocs()
	n := 128
	rng := rand.New(rand.NewSource(19))
	a := workload.Random(rng, n, 0.8, 0.5)
	res, err := core.Route(a)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := paths.VerifyAll(a, res); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHeaderStreaming measures the flit-level header simulation.
func BenchmarkHeaderStreaming(b *testing.B) {
	b.ReportAllocs()
	n := 256
	dests := make([]int, n)
	for i := range dests {
		dests[i] = i
	}
	for i := 0; i < b.N; i++ {
		if _, err := hdrstream.Simulate(n, dests, i%n); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDiagnosis measures stuck-fault localization.
func BenchmarkDiagnosis(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := diagnosis.Diagnose(16, diagnosis.Fault{Col: 5, Switch: 3, Stuck: 1}, 6, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRTLScatter measures the serial-unit (circuit) scatter against
// the algorithmic one — the cost of the RTL fidelity.
func BenchmarkRTLScatter(b *testing.B) {
	b.ReportAllocs()
	n := 256
	vals := []tag.Value{tag.V0, tag.V1, tag.Alpha, tag.Eps}
	rng := rand.New(rand.NewSource(20))
	tags := make([]tag.Value, n)
	for i := range tags {
		tags[i] = vals[rng.Intn(4)]
	}
	b.Run("algorithmic", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := rbn.ScatterPlan(n, tags, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rtl", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := circuit.ScatterPlan(n, tags, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkZipfTraffic routes heavy-tailed fanout traffic — the fanout
// profile of real multicast workloads.
func BenchmarkZipfTraffic(b *testing.B) {
	b.ReportAllocs()
	n := 256
	rng := rand.New(rand.NewSource(21))
	as := make([]brsmn.Assignment, 16)
	for i := range as {
		as[i] = brsmn.ZipfAssignment(rng, n, 1.3, 0.9)
	}
	nw, err := brsmn.New(n)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nw.Route(as[i%len(as)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRouteReuse isolates the planning pipeline's allocation
// regimes: a cold network construction per routing, the concurrency-safe
// Network.Route (pooled planner + one detaching clone per call), a
// and a reused Planner (steady-state zero-allocation routing; results
// alias planner storage).
func BenchmarkRouteReuse(b *testing.B) {
	for _, n := range []int{1024, 4096} {
		as := benchAssignments(n)
		b.Run(fmt.Sprintf("cold/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				nw, err := brsmn.New(n)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := nw.Route(as[i%len(as)]); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("network/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			nw, err := brsmn.New(n)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := nw.Route(as[i%len(as)]); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("planner/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			p, err := brsmn.NewPlanner(n)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.Route(as[i%len(as)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
