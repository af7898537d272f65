package groupd

import (
	"strings"
	"testing"

	"brsmn/internal/obs"
)

// TestManagerMetricsAndTracing drives a full epoch on an instrumented
// manager and checks that every advertised series family lands in the
// Prometheus exposition and that the sampled replan trace carries the
// planning quantities.
func TestManagerMetricsAndTracing(t *testing.T) {
	reg := obs.NewRegistry()
	tracer := obs.NewTraceRecorder(1) // sample every replan
	m := newTestManager(t, Config{N: 16, Metrics: reg, Tracer: tracer})

	if _, err := m.Create("conf", 2, []int{3, 4, 7}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Plan("conf"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Plan("conf"); err != nil { // cache hit
		t.Fatal(err)
	}
	if _, err := m.RunEpoch(); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, family := range []string{
		"brsmn_epoch_duration_seconds",
		"brsmn_epoch_rounds",
		"brsmn_epochs_total",
		"brsmn_replans_total",
		"brsmn_replan_duration_seconds",
		"brsmn_plan_cache_ops_total",
		"brsmn_plan_cache_entries",
		"brsmn_plan_cache_capacity",
		"brsmn_groups",
		"brsmn_pending_changes",
		"brsmn_epoch_number",
	} {
		if !strings.Contains(text, family) {
			t.Errorf("series %s missing from exposition", family)
		}
	}
	for _, line := range []string{
		`brsmn_epochs_total{result="ok"} 1`,
		`brsmn_plan_cache_ops_total{op="hit"}`,
		`brsmn_plan_cache_ops_total{op="miss"}`,
		`brsmn_plan_patches_total{result="full"} 1`,
		`brsmn_groups 1`,
		`brsmn_epoch_number 1`,
	} {
		if !strings.Contains(text, line) {
			t.Errorf("exposition missing %q:\n%s", line, text)
		}
	}

	tr := tracer.Last("conf")
	if tr == nil {
		t.Fatal("no trace recorded for conf at sample rate 1")
	}
	if tr.Key != "conf" || tr.N != 16 || tr.Fanout != 3 || tr.Settings <= 0 {
		t.Fatalf("trace = %+v", tr)
	}
	if tr.TotalNs <= 0 {
		t.Fatalf("trace untimed: %+v", tr)
	}
	// The flatten and encode stages ride in Extra.
	var flatten, encode bool
	for _, s := range tr.Extra {
		flatten = flatten || s.Name == "flatten"
		encode = encode || s.Name == "encode"
	}
	if !flatten || !encode {
		t.Fatalf("flatten/encode stages missing: %+v", tr.Extra)
	}
}

// TestManagerWithoutMetrics makes sure the instrumentation is fully
// optional: a bare manager runs epochs with nil metrics and tracer.
func TestManagerWithoutMetrics(t *testing.T) {
	m := newTestManager(t, Config{N: 8})
	if _, err := m.Create("g", 0, []int{1, 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	if m.met != nil || m.tracer != nil {
		t.Fatal("bare manager grew instruments")
	}
}

// TestEpochRoundsRoutedMetric checks the routed/reused split of epoch
// rounds on a shard-labelled manager: an unchanged second epoch reuses
// every round, and one join makes the next epoch route at least one.
func TestEpochRoundsRoutedMetric(t *testing.T) {
	reg := obs.NewRegistry()
	m := newTestManager(t, Config{N: 16, Metrics: reg, MetricsLabel: `shard="0"`})
	// a and b conflict on output 5: two rounds.
	mustCreate(t, m, "a", 0, []int{1, 5})
	mustCreate(t, m, "b", 3, []int{5, 9})
	mustCreate(t, m, "c", 7, []int{2, 11})

	series := func(result string) string {
		var b strings.Builder
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		prefix := `brsmn_epoch_rounds_routed_total{result="` + result + `",shard="0"} `
		for _, line := range strings.Split(b.String(), "\n") {
			if strings.HasPrefix(line, prefix) {
				return strings.TrimPrefix(line, prefix)
			}
		}
		t.Fatalf("series %s missing from exposition:\n%s", prefix, b.String())
		return ""
	}
	epoch := func() {
		t.Helper()
		if _, err := m.RunEpoch(); err != nil {
			t.Fatal(err)
		}
	}

	epoch()
	if r, u := series("routed"), series("reused"); r != "2" || u != "0" {
		t.Fatalf("first epoch routed %s, reused %s; want 2, 0", r, u)
	}
	epoch()
	if r, u := series("routed"), series("reused"); r != "2" || u != "2" {
		t.Fatalf("unchanged epoch: routed %s, reused %s; want 2, 2", r, u)
	}
	if _, err := m.Join("c", 14); err != nil {
		t.Fatal(err)
	}
	epoch()
	if r := series("routed"); r == "2" {
		t.Fatalf("epoch after a join routed no round (routed total %s)", r)
	}
}
