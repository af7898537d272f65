package rbn

import (
	"math/rand"
	"testing"

	"brsmn/internal/swbox"
	"brsmn/internal/tag"
)

// TestPlanGeometry checks Fig. 5's structure: stage j joins links at
// distance 2^j within aligned blocks of size 2^(j+1).
func TestPlanGeometry(t *testing.T) {
	p := NewPlan(16)
	if p.M != 4 || p.NumSwitches() != 32 {
		t.Fatalf("plan geometry: M=%d switches=%d", p.M, p.NumSwitches())
	}
	// Stage 0: switch w pairs (2w, 2w+1).
	for w := 0; w < 8; w++ {
		p0, p1 := p.Pair(0, w)
		if p0 != 2*w || p1 != 2*w+1 {
			t.Fatalf("stage 0 switch %d pairs (%d,%d)", w, p0, p1)
		}
	}
	// Stage 3 (full merge): switch w pairs (w, w+8).
	for w := 0; w < 8; w++ {
		p0, p1 := p.Pair(3, w)
		if p0 != w || p1 != w+8 {
			t.Fatalf("stage 3 switch %d pairs (%d,%d)", w, p0, p1)
		}
	}
	// Stage 1: blocks of 4; block 2 switch 1 pairs (9, 11).
	p0, p1 := p.Pair(1, 5)
	if p0 != 9 || p1 != 11 {
		t.Fatalf("stage 1 switch 5 pairs (%d,%d)", p0, p1)
	}
	// SwitchIndex inverts Pair's block addressing.
	if w := p.SwitchIndex(1, 8, 1); w != 5 {
		t.Fatalf("SwitchIndex(1, 8, 1) = %d, want 5", w)
	}
	// Pair's shift-and-mask form matches the block arithmetic of the
	// package doc at every switch.
	for n := 2; n <= 1024; n *= 2 {
		p := NewPlan(n)
		for j := 0; j < p.M; j++ {
			for w := 0; w < n/2; w++ {
				g0, g1 := p.Pair(j, w)
				if w0, w1 := refPair(j, w); g0 != w0 || g1 != w1 {
					t.Fatalf("n=%d: Pair(%d, %d) = (%d, %d), want (%d, %d)", n, j, w, g0, g1, w0, w1)
				}
			}
		}
	}
}

// TestPlanValidate covers the structural validator.
func TestPlanValidate(t *testing.T) {
	p := NewPlan(8)
	if err := p.Validate(); err != nil {
		t.Fatalf("fresh plan invalid: %v", err)
	}
	p.Stages[1][2] = swbox.Setting(7)
	if err := p.Validate(); err == nil {
		t.Error("Validate accepted an invalid setting")
	}
	p.Stages[1][2] = swbox.Parallel
	p.Stages[0] = p.Stages[0][:2]
	if err := p.Validate(); err == nil {
		t.Error("Validate accepted a short stage")
	}
	p = NewPlan(8)
	p.M = 5
	if err := p.Validate(); err == nil {
		t.Error("Validate accepted wrong M")
	}
	p = NewPlan(8)
	p.Stages = p.Stages[:2]
	if err := p.Validate(); err == nil {
		t.Error("Validate accepted missing stages")
	}
	bad := &Plan{N: 6}
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted non-power-of-two size")
	}
}

// TestApplyErrors covers the Apply error paths.
func TestApplyErrors(t *testing.T) {
	p := NewPlan(4)
	if _, err := Apply(p, []int{1, 2, 3}, nil); err == nil {
		t.Error("Apply accepted mismatched width")
	}
	p.Stages[0][0] = swbox.UpperBcast
	if _, err := Apply(p, []int{1, 2, 3, 4}, nil); err == nil {
		t.Error("Apply accepted a broadcast with no split function")
	}
	if _, err := Trace(p, []int{1, 2, 3, 4}, nil); err == nil {
		t.Error("Trace accepted a broadcast with no split function")
	}
	if _, err := Trace(p, []int{1}, nil); err == nil {
		t.Error("Trace accepted mismatched width")
	}
	// ApplyTags surfaces illegal broadcasts.
	if _, err := ApplyTags(p, []tag.Value{tag.V0, tag.V0, tag.V1, tag.V1}); err == nil {
		t.Error("ApplyTags accepted an illegal broadcast")
	}
	if _, err := ApplyTags(p, make([]tag.Value, 2)); err == nil {
		t.Error("ApplyTags accepted mismatched width")
	}
}

// TestTraceRecordsEveryStage checks Trace's shape and consistency with
// Apply.
func TestTraceRecordsEveryStage(t *testing.T) {
	gamma := []bool{true, false, true, false, false, true, true, false}
	p, err := BitSortPlan(8, gamma, 0)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := Trace(p, gamma, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) != p.M+1 {
		t.Fatalf("trace has %d snapshots, want %d", len(trace), p.M+1)
	}
	out, err := Apply(p, gamma, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if trace[p.M][i] != out[i] {
			t.Fatalf("trace final row disagrees with Apply at %d", i)
		}
	}
	for i := range gamma {
		if trace[0][i] != gamma[i] {
			t.Fatalf("trace first row is not the input at %d", i)
		}
	}
}

// TestNewPlanPanics covers the constructor guard.
func TestNewPlanPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewPlan(3) did not panic")
		}
	}()
	NewPlan(3)
}

// TestCountSettingsAndString smoke-checks the tally and that plans are
// printable through the diagram layer without broadcast glyph loss.
func TestCountSettingsAndString(t *testing.T) {
	tags := []tag.Value{tag.Alpha, tag.Eps, tag.V0, tag.V1}
	p, err := ScatterPlan(4, tags, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := p.CountSettings()
	total := 0
	for _, v := range c {
		total += v
	}
	if total != p.NumSwitches() {
		t.Fatalf("settings tally %d, want %d", total, p.NumSwitches())
	}
	if c[swbox.UpperBcast]+c[swbox.LowerBcast] != 1 {
		t.Fatalf("one α/ε pair should use one broadcast, tally %v", c)
	}
}

// TestApplyMatchesReference checks Trace, ApplyScratch and ApplyTags
// against the reference walk on plans with random settings of all four
// kinds, so that broadcasts meet illegal tag pairs and a nil split; an
// out-of-range setting must give ApplyTags the reference's error text.
func TestApplyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 2; n <= 128; n *= 2 {
		for trial := 0; trial < 20; trial++ {
			p := NewPlan(n)
			for _, col := range p.Stages {
				for w := range col {
					// Mostly unicast, so some plans get through ApplyTags.
					col[w] = swbox.Setting(rng.Intn(2))
					if rng.Intn(4*n) == 0 {
						col[w] = swbox.Setting(2 + rng.Intn(2))
					}
				}
			}
			tags := make([]tag.Value, n)
			for i := range tags {
				tags[i] = tag.Value(rng.Intn(6))
			}
			checkApply(t, p, tags)
			j, w := rng.Intn(p.M), rng.Intn(n/2)
			p.Stages[j][w] = swbox.Setting(4)
			_, gerr := ApplyTags(p, tags)
			_, werr := refApplyTags(p, tags)
			sameErr(t, "ApplyTags with an invalid setting", gerr, werr)
		}
	}
	// A broadcast with no split function.
	p := NewPlan(8)
	p.Stages[2][3] = swbox.LowerBcast
	checkApply(t, p, []tag.Value{tag.V0, tag.V1, tag.Eps, tag.Eps, tag.V0, tag.V1, tag.Eps, tag.Alpha})
	if _, err := Apply(p, make([]int, 8), nil); err == nil || err.Error() != "rbn: stage 2 switch 3 is lbcast but no split function given" {
		t.Fatalf("Apply with a nil split: %v", err)
	}
}
