package bsn

import (
	"math/rand"
	"testing"

	"brsmn/internal/mcast"
	"brsmn/internal/tag"
	"brsmn/internal/workload"
)

// TestFig4Example reproduces the flavor of Fig. 4b: a BSN fed with a mix
// of 0/1/α/ε tags scatters then quasisorts, leaving 0s in the upper half
// and 1s in the lower half with αs split.
func TestFig4Example(t *testing.T) {
	// 8 inputs: tags 0, α, ε, 1, ε, α, ε, ε  (n0=1, n1=1, nα=2, nε=4).
	in := make([]Cell, 8)
	mk := func(i int, dests []int) Cell {
		s, err := mcast.SequenceFromDests(8, dests)
		if err != nil {
			t.Fatal(err)
		}
		return Cell{Tag: s[0], Source: i, Seq: s}
	}
	in[0] = mk(0, []int{1})       // tag 0
	in[1] = mk(1, []int{2, 6})    // tag α
	in[2] = Idle()                // ε
	in[3] = mk(3, []int{5})       // tag 1
	in[4] = Idle()                // ε
	in[5] = mk(5, []int{0, 4, 7}) // tag α
	in[6] = Idle()
	in[7] = Idle()
	res, err := Route(in)
	if err != nil {
		t.Fatal(err)
	}
	// Expect 3 cells tagged 0 in the upper half (sources 0, 1, 5) and 3
	// tagged 1 in the lower half (sources 3, 1, 5).
	upSrc := map[int]bool{}
	lowSrc := map[int]bool{}
	for i, c := range res.Out {
		if c.IsIdle() {
			continue
		}
		if i < 4 {
			if c.Tag != tag.V0 {
				t.Fatalf("upper output %d has tag %v", i, c.Tag)
			}
			upSrc[c.Source] = true
		} else {
			if c.Tag != tag.V1 {
				t.Fatalf("lower output %d has tag %v", i, c.Tag)
			}
			lowSrc[c.Source] = true
		}
	}
	for _, want := range []int{0, 1, 5} {
		if !upSrc[want] {
			t.Errorf("source %d missing from upper half (%v)", want, upSrc)
		}
	}
	for _, want := range []int{1, 3, 5} {
		if !lowSrc[want] {
			t.Errorf("source %d missing from lower half (%v)", want, lowSrc)
		}
	}
}

// TestBSNInvariants checks equations (1)–(4) across random BSN-legal
// traffic: the input constraints hold, and the output counts match
// equation (4) with all αs eliminated.
func TestBSNInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for _, n := range []int{4, 8, 32, 128} {
		for trial := 0; trial < 30; trial++ {
			a := workload.Random(rng, n, rng.Float64(), rng.Float64())
			cells, err := CellsForAssignment(a)
			if err != nil {
				t.Fatal(err)
			}
			inTags := make([]tag.Value, n)
			for i, c := range cells {
				inTags[i] = tag.Eps
				if !c.IsIdle() {
					inTags[i] = c.Tag
				}
			}
			ic := tag.Count(inTags)
			if err := ic.CheckBSNInput(n); err != nil {
				t.Fatalf("n=%d %v: input constraints: %v", n, a, err)
			}
			res, err := Route(cells)
			if err != nil {
				t.Fatalf("n=%d %v: %v", n, a, err)
			}
			outTags := make([]tag.Value, n)
			for i, c := range res.Out {
				outTags[i] = tag.Eps
				if !c.IsIdle() {
					outTags[i] = c.Tag
				}
			}
			oc := tag.Count(outTags)
			if oc != ic.AfterScatter() {
				t.Fatalf("n=%d %v: output counts %+v, want %+v", n, a, oc, ic.AfterScatter())
			}
		}
	}
}

// TestRouteRejectsIllegalLoad checks the eq. (2) guard.
func TestRouteRejectsIllegalLoad(t *testing.T) {
	// Three connections all destined to the upper half of a 4-network.
	in := make([]Cell, 4)
	for i := 0; i < 3; i++ {
		s, err := mcast.SequenceFromDests(4, []int{i})
		if err != nil {
			t.Fatal(err)
		}
		in[i] = Cell{Tag: s[0], Source: i, Seq: s}
	}
	// Destination 2 is lower half; use {0},{1} upper plus a third upper
	// one: inputs 0->{0},1->{1} fill the upper half; 2->{0} would clash
	// with disjointness, so craft tags directly.
	in[0].Seq = nil
	in[0] = Cell{Tag: tag.V0, Source: 0, Seq: []tag.Value{tag.V0, tag.V0, tag.Eps}}
	in[1] = Cell{Tag: tag.V0, Source: 1, Seq: []tag.Value{tag.V0, tag.V1, tag.Eps}}
	in[2] = Cell{Tag: tag.V0, Source: 2, Seq: []tag.Value{tag.V0, tag.V0, tag.Eps}}
	in[3] = Idle()
	if _, err := Route(in); err == nil {
		t.Error("Route accepted 3 upper-half connections on a 4 x 4 BSN")
	}
}

// TestRouteRejectsInconsistentCell checks the tag/sequence head guard.
func TestRouteRejectsInconsistentCell(t *testing.T) {
	in := make([]Cell, 2)
	in[0] = Cell{Tag: tag.V0, Source: 0, Seq: []tag.Value{tag.V1}}
	in[1] = Idle()
	if _, err := Route(in); err == nil {
		t.Error("Route accepted a cell whose tag differs from its sequence head")
	}
}

// TestAdvance checks the Fig. 10 sequence handling on the paper's
// examples.
func TestAdvance(t *testing.T) {
	seq, err := mcast.SequenceFromDests(8, []int{3, 4, 7}) // α1αε011
	if err != nil {
		t.Fatal(err)
	}
	// The 0-copy continues with the left subtree (destinations {3} of
	// the upper half => {11} in 4-space => tags 1,ε,1 interleaved).
	up := Cell{Tag: tag.V0, Source: 2, Seq: seq}
	adv, err := Advance(up)
	if err != nil {
		t.Fatal(err)
	}
	if got := mcast.FormatSequence(adv.Seq); got != "1ε1" {
		t.Errorf("upper continuation = %q, want 1ε1", got)
	}
	if adv.Tag != tag.V1 {
		t.Errorf("upper continuation head tag = %v, want 1", adv.Tag)
	}
	// The 1-copy continues with the right subtree ({4,7} => {0,3} in
	// 4-space => root α, children 0 and 1).
	low := Cell{Tag: tag.V1, Source: 2, Seq: seq}
	adv, err = Advance(low)
	if err != nil {
		t.Fatal(err)
	}
	if got := mcast.FormatSequence(adv.Seq); got != "α01" {
		t.Errorf("lower continuation = %q, want α01", got)
	}
	// Idle cells advance unchanged; α exits are illegal.
	if _, err := Advance(Cell{Tag: tag.Alpha, Source: 1, Seq: seq}); err == nil {
		t.Error("Advance accepted an α exit tag")
	}
	idle, err := Advance(Idle())
	if err != nil || !idle.IsIdle() {
		t.Error("Advance(idle) changed the cell")
	}
	if _, err := Advance(Cell{Tag: tag.V0, Source: 0, Seq: []tag.Value{tag.V0}}); err == nil {
		t.Error("Advance accepted a final-level cell")
	}
}

// TestCellsForAssignment checks preparation of the outermost inputs.
func TestCellsForAssignment(t *testing.T) {
	a := workload.PaperFig2()
	cells, err := CellsForAssignment(a)
	if err != nil {
		t.Fatal(err)
	}
	if got := mcast.FormatSequence(cells[0].Seq); got != "00εαεεε" {
		t.Errorf("input 0 sequence = %q", got)
	}
	if got := mcast.FormatSequence(cells[2].Seq); got != "α1αε011" {
		t.Errorf("input 2 sequence = %q", got)
	}
	if !cells[1].IsIdle() || cells[1].Source != -1 {
		t.Error("idle input not idle")
	}
	if cells[2].Tag != tag.Alpha {
		t.Errorf("input 2 head tag = %v", cells[2].Tag)
	}
}

// TestEdgeDisjointness routes a heavy multicast and checks no wire ever
// carries two connections: Apply would have to merge two cells onto one
// link, which the cell model makes impossible by construction, so instead
// we check conservation — the number of non-idle cells grows only at
// broadcast switches, one copy per broadcast.
func TestEdgeDisjointness(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	n := 64
	a := workload.Random(rng, n, 1.0, 0.3)
	cells, err := CellsForAssignment(a)
	if err != nil {
		t.Fatal(err)
	}
	active := 0
	for _, c := range cells {
		if !c.IsIdle() {
			active++
		}
	}
	res, err := Route(cells)
	if err != nil {
		t.Fatal(err)
	}
	sc := res.Scatter.CountSettings()
	bcasts := sc[2] + sc[3]
	outActive := 0
	for _, c := range res.Out {
		if !c.IsIdle() {
			outActive++
		}
	}
	if outActive != active+bcasts {
		t.Fatalf("active cells %d -> %d with %d broadcasts; want %d",
			active, outActive, bcasts, active+bcasts)
	}
}
