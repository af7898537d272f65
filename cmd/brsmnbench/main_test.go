package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"brsmn/internal/harness"
)

// TestParseSizes covers the sweep-size parser.
func TestParseSizes(t *testing.T) {
	got, err := parseSizes("8, 16,32")
	if err != nil || len(got) != 3 || got[0] != 8 || got[2] != 32 {
		t.Fatalf("parseSizes = %v, %v", got, err)
	}
	if _, err := parseSizes("8,x"); err == nil {
		t.Error("parseSizes accepted garbage")
	}
}

// TestRunEachExperiment smoke-runs every experiment at small sizes.
func TestRunEachExperiment(t *testing.T) {
	sizes := []int{8, 16}
	for _, exp := range []string{"table1", "table2", "orders", "fit", "fig2", "delay", "splits", "pipeline", "util", "admission"} {
		var b strings.Builder
		if err := run(&b, exp, 16, sizes, 2, 1, 4, ""); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
		if b.Len() == 0 {
			t.Errorf("%s produced no output", exp)
		}
	}
	var b strings.Builder
	if err := run(&b, "wallclock", 16, sizes, 1, 1, 4, ""); err != nil {
		t.Fatalf("wallclock: %v", err)
	}
	if err := run(&b, "nonsense", 16, sizes, 1, 1, 4, ""); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestRunAll chains every experiment.
func TestRunAll(t *testing.T) {
	var b strings.Builder
	if err := run(&b, "all", 16, []int{8, 16}, 1, 1, 4, ""); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Table 1", "Table 2", "Pipelined operation", "Maximum-split", "Control-plane recovery"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("all: missing %q", want)
		}
	}
}

// TestRouteJSONRegimes checks the BENCH_route.json shape: all four
// regimes present, in order, with positive timings.
func TestRouteJSONRegimes(t *testing.T) {
	var b strings.Builder
	if err := runJSON(&b, "route", 16, 2, 1, 4, ""); err != nil {
		t.Fatal(err)
	}
	var rep harness.RouteBenchReport
	if err := json.Unmarshal([]byte(b.String()), &rep); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, b.String())
	}
	want := []string{"cold", "network", "planner", "delta-churn"}
	if len(rep.Regimes) != len(want) {
		t.Fatalf("%d regimes, want %d", len(rep.Regimes), len(want))
	}
	for i, m := range rep.Regimes {
		if m.Name != want[i] {
			t.Errorf("regime %d = %q, want %q", i, m.Name, want[i])
		}
		if m.NsPerOp <= 0 {
			t.Errorf("regime %q: non-positive timing %d", m.Name, m.NsPerOp)
		}
	}
}

// TestCheckBaseline covers the CI regression gate: matched runs pass,
// a >20% planner regression fails, and a size-mismatched baseline is
// rejected outright.
func TestCheckBaseline(t *testing.T) {
	rep, err := harness.RouteBench(16, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	write := func(name string, base harness.RouteBenchReport) string {
		blob, err := harness.MarshalReport(&base)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(p, []byte(blob), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	if err := checkBaseline(rep, write("same.json", *rep)); err != nil {
		t.Fatalf("self-comparison failed: %v", err)
	}
	fast := *rep
	fast.Regimes = append([]harness.Measurement(nil), rep.Regimes...)
	for i := range fast.Regimes {
		if fast.Regimes[i].Name == "planner" {
			fast.Regimes[i].NsPerOp /= 2
		}
	}
	if err := checkBaseline(rep, write("fast.json", fast)); err == nil {
		t.Error("2x planner regression passed the gate")
	}
	wrongN := *rep
	wrongN.N = 32
	if err := checkBaseline(rep, write("wrongn.json", wrongN)); err == nil {
		t.Error("size-mismatched baseline accepted")
	}
	if err := checkBaseline(rep, filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing baseline file accepted")
	}
}

// TestRecoveryJSON checks the BENCH_recovery.json shape: both boot
// scenarios, full group recovery, and a loaded snapshot on the
// graceful path.
func TestRecoveryJSON(t *testing.T) {
	var b strings.Builder
	if err := runJSON(&b, "recovery", 16, 2, 1, 4, ""); err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Experiment string `json:"experiment"`
		Groups     int    `json:"groups"`
		Scenarios  []struct {
			Name            string `json:"name"`
			NsPerOp         int64  `json:"nsPerOp"`
			Groups          int    `json:"groups"`
			ReplayedRecords int    `json:"replayedRecords"`
			Plans           int    `json:"plans"`
			SnapshotLoaded  bool   `json:"snapshotLoaded"`
		} `json:"scenarios"`
	}
	if err := json.Unmarshal([]byte(b.String()), &rep); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, b.String())
	}
	if rep.Experiment != "recovery" || len(rep.Scenarios) != 2 {
		t.Fatalf("report = %+v", rep)
	}
	replay, snap := rep.Scenarios[0], rep.Scenarios[1]
	if replay.Name != "log-replay" || replay.Groups != 4 || replay.ReplayedRecords == 0 || replay.SnapshotLoaded {
		t.Fatalf("log-replay = %+v", replay)
	}
	if snap.Name != "snapshot-restore" || snap.Groups != 4 || !snap.SnapshotLoaded ||
		snap.ReplayedRecords != 0 || snap.Plans != 4 {
		t.Fatalf("snapshot-restore = %+v", snap)
	}
	if replay.NsPerOp <= 0 || snap.NsPerOp <= 0 {
		t.Fatalf("non-positive timings: %d, %d", replay.NsPerOp, snap.NsPerOp)
	}
}
