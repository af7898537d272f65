package backend

import (
	"math/rand"
	"testing"

	"brsmn/internal/bsn"
	"brsmn/internal/fabric"
	"brsmn/internal/mcast"
	"brsmn/internal/plancodec"
	"brsmn/internal/workload"
)

// TestDifferentialSemantics is the satellite differential test: all
// three backends must deliver identical multicast semantics — every
// requested output reached from its owning source, nothing misdelivered
// — for 300 random assignments across n ∈ {16, 64, 256}. The brsmn and
// feedback column programs are additionally executed through fabric.Run
// and must reproduce their own reported deliveries, and every program
// must survive a plancodec round trip (the serving path's plan blob).
func TestDifferentialSemantics(t *testing.T) {
	const trialsPerSize = 100
	for _, n := range []int{16, 64, 256} {
		backends, err := All(n)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(70 + n)))
		for trial := 0; trial < trialsPerSize; trial++ {
			a := workload.Random(rng, n, rng.Float64(), rng.Float64())
			owner := a.OutputOwner()
			routes := map[Tier]*Route{}
			for _, tier := range Tiers() {
				r, err := backends[tier].Route(a)
				if err != nil {
					t.Fatalf("n=%d trial %d: %v: %v", n, trial, tier, err)
				}
				if r.Backend != tier {
					t.Fatalf("n=%d: %v route labeled %v", n, tier, r.Backend)
				}
				if len(r.Deliveries) != n {
					t.Fatalf("n=%d: %v returned %d deliveries", n, tier, len(r.Deliveries))
				}
				for out, src := range r.Deliveries {
					if src != owner[out] {
						t.Fatalf("n=%d trial %d: %v delivered source %d to output %d, want %d",
							n, trial, tier, src, out, owner[out])
					}
				}
				routes[tier] = r
			}
			for _, tier := range Tiers() {
				other := routes[tier]
				ref := routes[TierBRSMN]
				for out := range ref.Deliveries {
					if other.Deliveries[out] != ref.Deliveries[out] {
						t.Fatalf("n=%d trial %d: output %d: %v delivers %d, brsmn delivers %d",
							n, trial, out, tier, other.Deliveries[out], ref.Deliveries[out])
					}
				}
			}
			if trial%10 == 0 { // fabric execution + codec round trip, sampled
				for _, tier := range []Tier{TierBRSMN, TierFeedback} {
					checkColumnsDeliver(t, a, routes[tier])
				}
				for _, tier := range Tiers() {
					checkCodecRoundTrip(t, n, routes[tier])
				}
			}
		}
	}
}

// checkColumnsDeliver executes a single-injection column program and
// compares the fabric's deliveries with the route's claim.
func checkColumnsDeliver(t *testing.T, a mcast.Assignment, r *Route) {
	t.Helper()
	cells, err := bsn.CellsForAssignment(a)
	if err != nil {
		t.Fatal(err)
	}
	out, err := fabric.Run(r.Columns, cells)
	if err != nil {
		t.Fatalf("%v: executing columns: %v", r.Backend, err)
	}
	for i, c := range out {
		src := c.Source
		if c.IsIdle() {
			src = -1
		}
		if src != r.Deliveries[i] {
			t.Fatalf("%v: fabric delivered %d to output %d, route claims %d", r.Backend, src, i, r.Deliveries[i])
		}
	}
}

// checkCodecRoundTrip encodes and decodes a route's column program.
func checkCodecRoundTrip(t *testing.T, n int, r *Route) {
	t.Helper()
	blob, err := plancodec.Encode(n, r.Columns)
	if err != nil {
		t.Fatalf("%v: encode: %v", r.Backend, err)
	}
	gotN, cols, err := plancodec.Decode(blob)
	if err != nil {
		t.Fatalf("%v: decode: %v", r.Backend, err)
	}
	if gotN != n || len(cols) != len(r.Columns) {
		t.Fatalf("%v: round trip %d columns at n=%d, want %d at n=%d", r.Backend, len(cols), gotN, len(r.Columns), n)
	}
	for i, c := range cols {
		w := r.Columns[i]
		if c.Kind != w.Kind || c.Level != w.Level || c.BlockSize != w.BlockSize || c.AdvanceAfter != w.AdvanceAfter {
			t.Fatalf("%v: column %d header mismatch after round trip", r.Backend, i)
		}
		for j, s := range c.Settings {
			if s != w.Settings[j] {
				t.Fatalf("%v: column %d setting %d mismatch after round trip", r.Backend, i, j)
			}
		}
	}
}

// TestBackendShapes pins the per-tier program shape: pass counts and
// column counts follow the closed forms the /v1 surface reports.
func TestBackendShapes(t *testing.T) {
	n, m := 16, 4
	backends, err := All(n)
	if err != nil {
		t.Fatal(err)
	}
	a, err := workload.EvenFanout(n, 4)
	if err != nil {
		t.Fatal(err)
	}

	r, err := backends[TierBRSMN].Route(a)
	if err != nil {
		t.Fatal(err)
	}
	if r.Passes != 1 {
		t.Errorf("brsmn passes = %d, want 1", r.Passes)
	}

	r, err = backends[TierFeedback].Route(a)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2*m - 1; r.Passes != want {
		t.Errorf("feedback passes = %d, want %d", r.Passes, want)
	}
	if want := 2*m*(m-1) + 1; len(r.Columns) != want {
		t.Errorf("feedback columns = %d, want %d", len(r.Columns), want)
	}

	r, err = backends[TierPermNet].Route(a)
	if err != nil {
		t.Fatal(err)
	}
	if r.Passes != 4 {
		t.Errorf("permnet passes = %d, want 4", r.Passes)
	}
	perPass := 0
	for size := n; size >= 2; size /= 2 {
		perPass += mlog2(size)
	}
	if want := 4 * perPass; len(r.Columns) != want {
		t.Errorf("permnet columns = %d, want %d", len(r.Columns), want)
	}
}

func mlog2(n int) int {
	m := 0
	for 1<<m < n {
		m++
	}
	return m
}

// TestTierParsing round-trips the wire names.
func TestTierParsing(t *testing.T) {
	for _, tier := range Tiers() {
		got, err := ParseTier(tier.String())
		if err != nil || got != tier {
			t.Errorf("ParseTier(%q) = %v, %v", tier.String(), got, err)
		}
	}
	if got, err := ParseTier(""); err != nil || got != TierBRSMN {
		t.Errorf("ParseTier(\"\") = %v, %v", got, err)
	}
	if _, err := ParseTier("crossbar"); err == nil {
		t.Error("ParseTier accepted an unknown backend")
	}
}

// TestCapabilities pins each backend's name and cost row.
func TestCapabilities(t *testing.T) {
	backends, err := All(64)
	if err != nil {
		t.Fatal(err)
	}
	for _, tier := range Tiers() {
		b := backends[tier]
		if b.Name() != tier.String() {
			t.Errorf("%v: Name mismatch (%q)", tier, b.Name())
		}
		if row := b.Cost(); row.Switches <= 0 || row.Depth <= 0 {
			t.Errorf("%v: degenerate cost row %+v", tier, row)
		}
	}
	if backends[TierFeedback].Cost().Switches >= backends[TierBRSMN].Cost().Switches {
		t.Error("feedback must use less hardware than the unrolled BRSMN")
	}
}
