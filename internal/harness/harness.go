// Package harness regenerates every table and figure of the paper's
// exposition and evaluation from the implementations in this repository:
// Table 1 (tag encoding), Table 2 (network comparison, concrete and
// normalized), the Fig. 2 routing example, the Fig. 9/11 tag sequences,
// and the scaling sweeps recorded in EXPERIMENTS.md. Each experiment is a
// function returning rendered text plus, where useful, the raw series, so
// both the CLI (cmd/brsmnbench) and the tests drive the same code.
package harness

import (
	"fmt"
	"strings"
	"time"

	"brsmn/internal/benes"
	"brsmn/internal/copynet"
	"brsmn/internal/core"
	"brsmn/internal/cost"
	"brsmn/internal/diagram"
	"brsmn/internal/fabric"
	"brsmn/internal/feedback"
	"brsmn/internal/gates"
	"brsmn/internal/mcast"
	"brsmn/internal/netsim"
	"brsmn/internal/paths"
	"brsmn/internal/sched"
	"brsmn/internal/shuffle"
	"brsmn/internal/stats"
	"brsmn/internal/tag"
	"brsmn/internal/workload"
	"math/rand"
)

// Table1 renders the routing-tag encoding of Table 1.
func Table1() string {
	rows := make([][]string, 0, tag.NumValues)
	for _, v := range []tag.Value{tag.V0, tag.V1, tag.Alpha, tag.Eps, tag.Eps0, tag.Eps1} {
		b := tag.Encode(v)
		enc := fmt.Sprintf("%d%d%d", b.B0, b.B1, b.B2)
		if v == tag.Eps {
			enc = "11X"
		}
		rows = append(rows, []string{v.String(), enc})
	}
	return "Table 1: routing-tag encoding\n" +
		diagram.Table([]string{"tag", "b0b1b2"}, rows)
}

// Table2Concrete renders the Table 2 comparison at one network size with
// concrete units (switches, gates, columns, gate delays).
func Table2Concrete(n int) string {
	rows := [][]string{}
	for _, r := range cost.Table2(n) {
		rows = append(rows, []string{
			r.Name,
			fmt.Sprint(r.Switches),
			fmt.Sprint(r.Gates),
			fmt.Sprint(r.Depth),
			fmt.Sprint(r.RoutingTime),
		})
	}
	for _, r := range []cost.Row{cost.GCNImplemented(n), cost.CopyNet(n), cost.PermNet(n), cost.Crossbar(n)} {
		rows = append(rows, []string{
			r.Name,
			fmt.Sprint(r.Switches),
			fmt.Sprint(r.Gates),
			fmt.Sprint(r.Depth),
			fmt.Sprint(r.RoutingTime),
		})
	}
	return fmt.Sprintf("Table 2 at n = %d (concrete units; implemented baselines appended)\n", n) +
		diagram.Table([]string{"network", "switches", "gates", "depth", "routing (gate delays)"}, rows)
}

// Table2Normalized renders the Table 2 orders over a size sweep: each
// quantity divided by its claimed growth function. Constant columns
// confirm the claimed orders.
func Table2Normalized(sizes []int) string {
	rows := [][]string{}
	for _, n := range sizes {
		brsmn := cost.BRSMN(n)
		fb := cost.Feedback(n)
		prior := cost.NassimiSahni(n)
		rows = append(rows, []string{
			fmt.Sprint(n),
			fmt.Sprintf("%.3f", cost.NormalizedGrowth(n, float64(brsmn.Switches), "nlog2n")),
			fmt.Sprintf("%.3f", cost.NormalizedGrowth(n, float64(fb.Switches), "nlogn")),
			fmt.Sprintf("%.3f", cost.NormalizedGrowth(n, float64(brsmn.Depth), "log2n")),
			fmt.Sprintf("%.3f", cost.NormalizedGrowth(n, float64(brsmn.RoutingTime), "log2n")),
			fmt.Sprintf("%.3f", cost.NormalizedGrowth(n, float64(prior.RoutingTime), "log3n")),
		})
	}
	return "Table 2 orders over a size sweep (constant columns = claimed order holds)\n" +
		diagram.Table([]string{
			"n",
			"BRSMN sw / n·lg²n",
			"fb sw / n·lgn",
			"depth / lg²n",
			"BRSMN rt / lg²n",
			"prior rt / lg³n",
		}, rows)
}

// Fig2 renders the routing of the paper's 8 x 8 example through the
// BRSMN.
func Fig2() (string, error) {
	a := workload.PaperFig2()
	res, err := core.Route(a)
	if err != nil {
		return "", err
	}
	seqs, err := diagram.RenderSequences(a)
	if err != nil {
		return "", err
	}
	return "Fig. 2: the paper's 8x8 routing example\n\nRouting-tag sequences (Fig. 9 format):\n" +
		seqs + "\n" + diagram.RenderRoute(a, res), nil
}

// SweepPoint is one point of a scaling experiment.
type SweepPoint struct {
	N     int
	Value float64
}

// CostSweep returns the switch counts of the named network across sizes.
// Supported names: brsmn, feedback, permnet, copynet, crossbar, prior.
func CostSweep(name string, sizes []int) ([]SweepPoint, error) {
	var pts []SweepPoint
	for _, n := range sizes {
		var v int
		switch name {
		case "brsmn":
			v = cost.BRSMN(n).Switches
		case "feedback":
			v = cost.Feedback(n).Switches
		case "permnet":
			v = cost.PermNet(n).Switches
		case "copynet":
			v = cost.CopyNet(n).Switches
		case "crossbar":
			v = cost.Crossbar(n).Switches
		case "prior":
			v = cost.NassimiSahni(n).Switches
		default:
			return nil, fmt.Errorf("harness: unknown network %q", name)
		}
		pts = append(pts, SweepPoint{N: n, Value: float64(v)})
	}
	return pts, nil
}

// RoutingDelaySweep returns the simulated gate-delay routing time of the
// BRSMN and feedback networks across sizes.
func RoutingDelaySweep(sizes []int) string {
	rows := [][]string{}
	for _, n := range sizes {
		rows = append(rows, []string{
			fmt.Sprint(n),
			fmt.Sprint(gates.RBNRoutingDelay(n)),
			fmt.Sprint(gates.BRSMNRoutingDelay(n)),
			fmt.Sprint(gates.FeedbackRoutingDelay(n)),
			fmt.Sprint(cost.CopyNet(n).RoutingTime),
		})
	}
	return "Routing time in gate delays (simulated pipelined sweeps; copynet = centralized looping work)\n" +
		diagram.Table([]string{"n", "one RBN", "BRSMN", "feedback", "copynet (centralized)"}, rows)
}

// WallClock measures actual wall-clock routing time of the three
// functional multicast networks on the same random traffic — the
// software analogue of the routing-time column.
func WallClock(n, trials int, seed int64) (string, error) {
	rng := rand.New(rand.NewSource(seed))
	assignments := make([]mcast.Assignment, trials)
	for i := range assignments {
		assignments[i] = workload.Random(rng, n, 0.8, 0.5)
	}
	un, err := core.New(n)
	if err != nil {
		return "", err
	}
	fb, err := feedback.New(n)
	if err != nil {
		return "", err
	}
	cn, err := copynet.New(n)
	if err != nil {
		return "", err
	}
	timeIt := func(f func(mcast.Assignment) error) (time.Duration, error) {
		start := time.Now()
		for _, a := range assignments {
			if err := f(a); err != nil {
				return 0, err
			}
		}
		return time.Since(start) / time.Duration(trials), nil
	}
	tu, err := timeIt(func(a mcast.Assignment) error { _, err := un.Route(a); return err })
	if err != nil {
		return "", err
	}
	tf, err := timeIt(func(a mcast.Assignment) error { _, err := fb.Route(a); return err })
	if err != nil {
		return "", err
	}
	tc, err := timeIt(func(a mcast.Assignment) error { _, err := cn.Route(a); return err })
	if err != nil {
		return "", err
	}
	tb, err := timeIt(func(a mcast.Assignment) error {
		perm := make([]int, a.N)
		owner := a.OutputOwner()
		for i := range perm {
			perm[i] = -1
		}
		for out, in := range owner {
			if in >= 0 && perm[in] < 0 {
				perm[in] = out
			}
		}
		_, err := benes.RoutePermutation(perm)
		return err
	})
	if err != nil {
		return "", err
	}
	rows := [][]string{
		{"BRSMN (unrolled, self-routing)", tu.String()},
		{"BRSMN (feedback)", tf.String()},
		{"copy network + Benes (centralized)", tc.String()},
		{"Benes looping alone (unicast only)", tb.String()},
	}
	return fmt.Sprintf("Mean wall-clock routing time, n = %d, %d random assignments\n", n, trials) +
		diagram.Table([]string{"network", "time/assignment"}, rows), nil
}

// SplitStress routes the adversarial maximum-split workloads and reports
// the broadcast (split) counts per level — the α-traffic profile.
func SplitStress(n int) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "Maximum-split stress on n = %d\n", n)
	rows := [][]string{}
	for g := 1; g <= n; g *= 2 {
		a, err := workload.MaxSplit(n, g)
		if err != nil {
			return "", err
		}
		res, err := core.Route(a)
		if err != nil {
			return "", err
		}
		splits := 0
		for _, lp := range res.Plans {
			sc := lp.Scatter.CountSettings()
			splits += sc[2] + sc[3]
		}
		for _, s := range res.Final {
			if s.IsBroadcast() {
				splits++
			}
		}
		rows = append(rows, []string{fmt.Sprint(g), fmt.Sprint(a.Fanout()), fmt.Sprint(splits)})
	}
	b.WriteString(diagram.Table([]string{"groups", "fanout", "broadcast switches used"}, rows))
	return b.String(), nil
}

// PipelineExperiment runs a batch of assignments through the pipelined
// fabric simulator at several injection gaps and reports makespan,
// speedup and peak column parallelism (the Section 7 pipelining claim).
func PipelineExperiment(n, waves int, seed int64) (string, error) {
	rng := rand.New(rand.NewSource(seed))
	as := make([]mcast.Assignment, waves)
	for i := range as {
		as[i] = workload.Random(rng, n, 0.8, 0.5)
	}
	rows := [][]string{}
	for _, gap := range []int{1, 2, 4} {
		rep, err := netsim.Pipeline(as, gap)
		if err != nil {
			return "", err
		}
		rows = append(rows, []string{
			fmt.Sprint(gap),
			fmt.Sprint(rep.Depth),
			fmt.Sprint(rep.Makespan),
			fmt.Sprint(rep.SequentialMakespan),
			fmt.Sprintf("%.2fx", rep.Speedup()),
			fmt.Sprint(rep.MaxColumnsBusy),
		})
	}
	return fmt.Sprintf("Pipelined operation, n = %d, %d assignments in flight\n", n, waves) +
		diagram.Table([]string{"gap", "depth", "makespan", "sequential", "speedup", "peak busy columns"}, rows), nil
}

// FitExperiment fits the measured series to the n·log^q(n) family of
// Table 2 and reports the estimated exponents q with R² — the regression
// form of the normalized-ratio table. Expected asymptotics: q = 2 for
// the BRSMN's cost and (base-0) routing delay, q = 1 for the feedback
// cost, q = 3 for the prior networks' modelled routing time; finite-size
// fits land slightly below the asymptote because the lower levels of the
// recursion carry smaller logs.
func FitExperiment(sizes []int) (string, error) {
	collect := func(f func(n int) float64) []float64 {
		vals := make([]float64, len(sizes))
		for i, n := range sizes {
			vals[i] = f(n)
		}
		return vals
	}
	type row struct {
		name   string
		base   float64
		values []float64
		expect string
	}
	rows := []row{
		{"BRSMN switches", 1, collect(func(n int) float64 { return float64(cost.BRSMN(n).Switches) }), "q→2"},
		{"feedback switches", 1, collect(func(n int) float64 { return float64(cost.Feedback(n).Switches) }), "q=1"},
		{"GCN (implemented) switches", 1, collect(func(n int) float64 { return float64(cost.GCNImplemented(n).Switches) }), "q→2"},
		{"BRSMN depth", 0, collect(func(n int) float64 { return float64(cost.BRSMN(n).Depth) }), "q→2"},
		{"BRSMN routing delay", 0, collect(func(n int) float64 { return float64(cost.BRSMN(n).RoutingTime) }), "q→2"},
		{"prior routing (model)", 0, collect(func(n int) float64 { return float64(cost.NassimiSahni(n).RoutingTime) }), "q=3"},
		{"copynet routing", 1, collect(func(n int) float64 { return float64(cost.CopyNet(n).RoutingTime) }), "q→1"},
	}
	table := [][]string{}
	for _, r := range rows {
		fit, err := stats.PolylogExponent(sizes, r.values, r.base)
		if err != nil {
			return "", fmt.Errorf("harness: fitting %s: %w", r.name, err)
		}
		table = append(table, []string{
			r.name,
			fmt.Sprintf("n^%g·lg^q", r.base),
			fmt.Sprintf("%.2f", fit.Slope),
			r.expect,
			fmt.Sprintf("%.4f", fit.R2),
		})
	}
	return "Fitted polylog exponents over the size sweep (value ≈ c · n^base · lg^q n)\n" +
		diagram.Table([]string{"series", "family", "fitted q", "expected", "R²"}, table), nil
}

// UtilizationExperiment measures fabric link-slot utilization vs load:
// the fraction of (column, link) slots occupied by the edge-disjoint
// multicast trees of a routed assignment (package paths). Full
// permutations keep every link busy in every column; light multicast
// loads leave most of the fabric dark — the over-provisioning inherent
// to a nonblocking design.
func UtilizationExperiment(n int, seed int64) (string, error) {
	rng := rand.New(rand.NewSource(seed))
	rows := [][]string{}
	for _, load := range []float64{0.1, 0.25, 0.5, 0.75, 1.0} {
		a := workload.Random(rng, n, load, 0.6)
		res, err := core.Route(a)
		if err != nil {
			return "", err
		}
		trees, err := paths.VerifyAll(a, res)
		if err != nil {
			return "", err
		}
		cols, err := fabric.Flatten(res)
		if err != nil {
			return "", err
		}
		slots := (len(cols) + 1) * n
		used := paths.TotalEdges(trees)
		rows = append(rows, []string{
			fmt.Sprintf("%.2f", load),
			fmt.Sprint(a.Fanout()),
			fmt.Sprint(used),
			fmt.Sprint(slots),
			fmt.Sprintf("%.1f%%", 100*float64(used)/float64(slots)),
		})
	}
	return fmt.Sprintf("Fabric link-slot utilization, n = %d (edge-disjoint trees verified per row)\n", n) +
		diagram.Table([]string{"load", "fanout", "link-slots used", "total", "utilization"}, rows), nil
}

// AdmissionExperiment measures the greedy scheduler against the
// conflict-degree lower bound across batch intensities: rounds used vs
// the bound, over random overlapping request batches.
func AdmissionExperiment(n int, seed int64) (string, error) {
	rng := rand.New(rand.NewSource(seed))
	rows := [][]string{}
	for _, batch := range []int{n / 4, n / 2, n, 2 * n} {
		reqs := make([]sched.Request, batch)
		for i := range reqs {
			k := 1 + rng.Intn(n/4)
			reqs[i] = sched.Request{Source: rng.Intn(n), Dests: rng.Perm(n)[:k]}
		}
		rounds, err := sched.Schedule(n, reqs)
		if err != nil {
			return "", err
		}
		bound := sched.ConflictDegree(n, reqs)
		rows = append(rows, []string{
			fmt.Sprint(batch),
			fmt.Sprint(bound),
			fmt.Sprint(len(rounds)),
			fmt.Sprintf("%.2f", float64(len(rounds))/float64(bound)),
		})
	}
	return fmt.Sprintf("Greedy admission vs conflict-degree lower bound, n = %d\n", n) +
		diagram.Table([]string{"requests", "lower bound", "rounds used", "ratio"}, rows), nil
}

// SaturationExperiment runs the input-queued switch emulation (HOL
// admission of overlapping multicast packets, one fabric pass per slot)
// across offered loads and reports delivered throughput, mean packet
// delay and final backlog — the saturation behavior of a multicast
// input-queued switch.
func SaturationExperiment(n, slots int, seed int64) (string, error) {
	rows := [][]string{}
	for _, load := range []float64{0.1, 0.2, 0.3, 0.4, 0.5} {
		rng := rand.New(rand.NewSource(seed))
		nw, err := core.New(n)
		if err != nil {
			return "", err
		}
		type pkt struct {
			dests   []int
			arrived int
		}
		queues := make([][]*pkt, n)
		delivered, copies, sumDelay, backlog := 0, 0, 0, 0
		for slot := 0; slot < slots; slot++ {
			for in := 0; in < n; in++ {
				if rng.Float64() >= load {
					continue
				}
				fan := 1
				for fan < n/2 && rng.Float64() < 0.4 {
					fan++
				}
				queues[in] = append(queues[in], &pkt{dests: rng.Perm(n)[:fan], arrived: slot})
			}
			outUsed := make([]bool, n)
			dests := make([][]int, n)
			var admitted []int
			for in := 0; in < n; in++ {
				if len(queues[in]) == 0 {
					continue
				}
				p := queues[in][0]
				ok := true
				for _, d := range p.dests {
					if outUsed[d] {
						ok = false
						break
					}
				}
				if !ok {
					continue
				}
				for _, d := range p.dests {
					outUsed[d] = true
				}
				dests[in] = p.dests
				admitted = append(admitted, in)
			}
			if len(admitted) == 0 {
				continue
			}
			a, err := mcast.New(n, dests)
			if err != nil {
				return "", err
			}
			if _, err := nw.Route(a); err != nil {
				return "", err
			}
			for _, in := range admitted {
				p := queues[in][0]
				queues[in] = queues[in][1:]
				delivered++
				copies += len(p.dests)
				sumDelay += slot - p.arrived
			}
		}
		for _, q := range queues {
			backlog += len(q)
		}
		meanDelay := 0.0
		if delivered > 0 {
			meanDelay = float64(sumDelay) / float64(delivered)
		}
		rows = append(rows, []string{
			fmt.Sprintf("%.2f", load),
			fmt.Sprintf("%.2f", float64(copies)/float64(slots)),
			fmt.Sprintf("%.2f", meanDelay),
			fmt.Sprint(backlog),
		})
	}
	return fmt.Sprintf("Input-queued switch saturation, n = %d, %d slots (HOL admission)\n", n, slots) +
		diagram.Table([]string{"offered load (pkts/in/slot)", "copies/slot", "mean delay (slots)", "backlog"}, rows), nil
}

// KTradeoffExperiment sweeps the Nassimi–Sahni design parameter k
// (footnote 1 of the paper) at a fixed size: small k trades a polynomial
// switch-count blow-up for shallow depth; k = log n reaches the
// n·log² n Table 2 point, which the BRSMN meets with a faster (log² n
// vs k·log² n) distributed routing time.
func KTradeoffExperiment(n int) string {
	rows := [][]string{}
	m := shuffle.Log2(n)
	for k := 1; k <= m; k *= 2 {
		r := cost.NassimiSahniK(n, k)
		rows = append(rows, []string{
			fmt.Sprint(k),
			fmt.Sprint(r.Switches),
			fmt.Sprint(r.Depth),
			fmt.Sprint(r.RoutingTime),
		})
	}
	br := cost.BRSMN(n)
	rows = append(rows, []string{"BRSMN", fmt.Sprint(br.Switches), fmt.Sprint(br.Depth), fmt.Sprint(br.RoutingTime)})
	return fmt.Sprintf("Nassimi–Sahni k-parameter trade-off at n = %d (model; BRSMN row measured)\n", n) +
		diagram.Table([]string{"k", "switches", "depth", "routing (gate delays)"}, rows)
}
