package groupd

// Metrics registration for the group manager. All series live under the
// brsmn_ prefix and map onto the paper's accounting where one exists:
//
//	brsmn_epoch_duration_seconds      histogram  one reroute epoch, wall-clock
//	brsmn_epoch_rounds                histogram  conflict-free rounds per epoch
//	brsmn_epochs_total{result=...}    counter    ok | error
//	brsmn_epoch_rounds_routed_total   counter    {result}: routed | reused epoch rounds
//	brsmn_replan_duration_seconds     histogram  cache-miss O(n log² n) replan
//	brsmn_replans_total               counter    cache-miss replans
//	brsmn_plan_patches_total{result}  counter    patched | full plan misses (Plan and epoch refresh)
//	brsmn_plan_patch_duration_seconds histogram  patched Plan: replay+flatten+encode
//	brsmn_plan_patch_level            histogram  topmost replanned level per delta
//	brsmn_plan_patch_delta_changes    histogram  changes replayed per patched Plan
//	brsmn_plan_cache_ops_total{op=..} counter    hit | miss | eviction | invalidation
//	brsmn_plan_cache_entries          gauge      live entries (capacity as its own gauge)
//	brsmn_groups                      gauge      registered groups
//	brsmn_pending_changes             gauge      membership churn since last epoch
//
// Counters the cache already keeps atomically are exposed as
// scrape-time funcs, so serving paths pay nothing extra.

import "brsmn/internal/obs"

// managerMetrics holds the instruments the manager updates inline.
type managerMetrics struct {
	epochDur    *obs.Histogram
	epochRounds *obs.Histogram
	epochsOK    *obs.Counter
	epochsErr   *obs.Counter
	replans     *obs.Counter
	replanDur   *obs.Histogram
	patched     *obs.Counter
	patchFull   *obs.Counter
	patchDur    *obs.Histogram
	patchLevel  *obs.Histogram
	patchDelta  *obs.Histogram

	// roundsRouted and roundsReused split each epoch's rounds into
	// those routed afresh and those reused from the previous epoch.
	roundsRouted *obs.Counter
	roundsReused *obs.Counter
}

// registerMetrics wires the manager's series into reg and returns the
// inline instruments. Config.MetricsLabel (e.g. `shard="3"`) is folded
// into every series name, so several managers share one registry
// without colliding — families, and with them the HELP/TYPE headers,
// stay shared.
func (m *Manager) registerMetrics(reg *obs.Registry) *managerMetrics {
	lbl := func(name string) string { return obs.WithLabel(name, m.cfg.MetricsLabel) }
	met := &managerMetrics{
		epochDur: reg.Histogram(lbl("brsmn_epoch_duration_seconds"),
			"Wall-clock duration of one reroute epoch.", obs.SecondsBuckets()),
		epochRounds: reg.Histogram(lbl("brsmn_epoch_rounds"),
			"Conflict-free rounds scheduled per epoch.", []float64{1, 2, 4, 8, 16, 32, 64}),
		epochsOK: reg.Counter(lbl(`brsmn_epochs_total{result="ok"}`),
			"Completed reroute epochs by result."),
		epochsErr: reg.Counter(lbl(`brsmn_epochs_total{result="error"}`),
			"Completed reroute epochs by result."),
		roundsRouted: reg.Counter(lbl(`brsmn_epoch_rounds_routed_total{result="routed"}`),
			"Epoch rounds routed afresh vs reused unchanged from the previous epoch."),
		roundsReused: reg.Counter(lbl(`brsmn_epoch_rounds_routed_total{result="reused"}`),
			"Epoch rounds routed afresh vs reused unchanged from the previous epoch."),
		replans: reg.Counter(lbl("brsmn_replans_total"),
			"Cache-miss full replans (O(n log^2 n) routes)."),
		replanDur: reg.Histogram(lbl("brsmn_replan_duration_seconds"),
			"Wall-clock duration of one cache-miss replan, flatten and encode included.", obs.SecondsBuckets()),
		patched: reg.Counter(lbl(`brsmn_plan_patches_total{result="patched"}`),
			"Plan cache misses served by rolling the retained route forward with incremental patches vs by a full replan."),
		patchFull: reg.Counter(lbl(`brsmn_plan_patches_total{result="full"}`),
			"Plan cache misses served by rolling the retained route forward with incremental patches vs by a full replan."),
		patchDur: reg.Histogram(lbl("brsmn_plan_patch_duration_seconds"),
			"Wall-clock duration of one patched Plan: delta replay, flatten and encode included.", obs.SecondsBuckets()),
		patchLevel: reg.Histogram(lbl("brsmn_plan_patch_level"),
			"Topmost recursion level replanned per applied patch delta (deeper levels replan fewer outputs).",
			[]float64{2, 3, 4, 5, 6, 7, 8, 10, 12, 16}),
		patchDelta: reg.Histogram(lbl("brsmn_plan_patch_delta_changes"),
			"Pending membership changes replayed per patched Plan.", []float64{1, 2, 4, 8, 16}),
	}

	cacheOp := func(name string, read func(CacheStats) uint64) {
		reg.CounterFunc(lbl(`brsmn_plan_cache_ops_total{op="`+name+`"}`),
			"Plan cache operations by kind.",
			func() float64 { return float64(read(m.cache.stats())) })
	}
	cacheOp("hit", func(s CacheStats) uint64 { return s.Hits })
	cacheOp("miss", func(s CacheStats) uint64 { return s.Misses })
	cacheOp("eviction", func(s CacheStats) uint64 { return s.Evictions })
	cacheOp("invalidation", func(s CacheStats) uint64 { return s.Invalidations })
	reg.GaugeFunc(lbl("brsmn_plan_cache_entries"), "Live plan cache entries.",
		func() float64 { return float64(m.cache.stats().Size) })
	reg.GaugeFunc(lbl("brsmn_plan_cache_capacity"), "Plan cache capacity in entries.",
		func() float64 { return float64(m.cfg.CacheSize) })

	reg.GaugeFunc(lbl("brsmn_groups"), "Registered multicast groups.",
		func() float64 { return float64(m.Count()) })
	reg.GaugeFunc(lbl("brsmn_pending_changes"), "Membership changes since the last epoch began.",
		func() float64 { return float64(m.Pending()) })
	reg.CounterFunc(lbl("brsmn_epoch_number"), "Completed epoch count.",
		func() float64 { return float64(m.Epoch()) })

	// Recovery series exist only on durable managers. m.recovered is
	// written once in NewManager before registration, so scrape-time
	// reads are race-free.
	if m.cfg.Store != nil {
		reg.GaugeFunc(lbl("brsmn_recovery_groups"),
			"Groups live after the last boot-time recovery.",
			func() float64 { return float64(m.recovered.Groups) })
		reg.GaugeFunc(lbl("brsmn_recovery_replayed_records"),
			"WAL records replayed past the snapshot during the last boot-time recovery.",
			func() float64 { return float64(m.recovered.Records) })
		reg.GaugeFunc(lbl("brsmn_recovery_plans"),
			"Warm plan-cache entries restored by the last boot-time recovery.",
			func() float64 { return float64(m.recovered.Plans) })
		reg.GaugeFunc(lbl("brsmn_recovery_snapshot_loaded"),
			"Whether a snapshot seeded the last boot-time recovery (0 or 1).",
			func() float64 {
				if m.recovered.SnapshotLoaded {
					return 1
				}
				return 0
			})
		reg.GaugeFunc(lbl("brsmn_recovery_duration_seconds"),
			"Wall-clock duration of the last boot-time recovery.",
			func() float64 { return m.recovered.Duration.Seconds() })
	}
	return met
}
