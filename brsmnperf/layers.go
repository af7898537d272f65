package main

import "math"

// layerMetrics computes the per-layer metrics of a traced run from the
// client spans, the daemon's /metrics deltas over the timed phase and
// the in-process replay. Each is documented in README.md with the
// end-to-end metric it should move and on which workload.
func layerMetrics(r *result, e2e map[string]metric) map[string]metric {
	d, rp := r.metrics, r.replay
	per := func(sum, count float64) float64 {
		if count == 0 {
			return 0
		}
		return sum / count
	}
	ops := float64(len(r.spans))

	// Client side: the mean latency over every timed request, and the
	// mean answer size of plan requests.
	var clientNs, planBytes, plans, uncached float64
	for _, s := range r.spans {
		clientNs += float64(s.end - s.start)
		if s.kind == opPlan || s.kind == opStateless {
			planBytes += float64(s.bytes)
			plans++
		}
		if s.uncached {
			uncached++
		}
	}
	clientUs := per(clientNs, ops) / 1e3

	// api: handler time of the workload's requests (the /metrics scrape
	// itself is excluded).
	reqs := d.sum("brsmn_http_request_seconds_count") - d.sum("brsmn_http_request_seconds_count", `handler="metrics"`)
	handlerS := d.sum("brsmn_http_request_seconds_sum") - d.sum("brsmn_http_request_seconds_sum", `handler="metrics"`)
	handlerUs := 1e6 * per(handlerS, reqs)

	// shard: admission wait, execution and completion signal.
	waitS, waitN := d.sum("brsmn_shard_admission_wait_seconds_sum"), d.sum("brsmn_shard_admission_wait_seconds_count")
	execS, execN := d.sum("brsmn_shard_exec_seconds_sum"), d.sum("brsmn_shard_exec_seconds_count")
	sigS, sigN := d.sum("brsmn_shard_signal_seconds_sum"), d.sum("brsmn_shard_signal_seconds_count")
	shardPerReqUs := 1e6 * per(waitS+execS+sigS, reqs)

	// groupd.
	hits := d.sum("brsmn_plan_cache_ops_total", `op="hit"`)
	misses := d.sum("brsmn_plan_cache_ops_total", `op="miss"`)
	replans := d.sum("brsmn_replans_total")
	patched := d.sum("brsmn_plan_patches_total", `result="patched"`)
	epochs := d.sum("brsmn_epochs_total", `result="ok"`)

	// Residual: the part of the innermost layer the daemon measures that
	// the replayed layers do not explain. For group workloads that layer
	// is shard execution (cache lookup plus the groupd miss path, replayed
	// as mcast/core/fabric/plancodec work per full replan and per patch);
	// for stateless-plan it is the handler's own time outside shard,
	// replayed as JSON decode, mcast.New, core.New, Route, Flatten and
	// Encode. The full replans are the fetches the daemon answered
	// uncached less the patched ones: brsmn_replans_total also counts the
	// epoch loop's replans, which run outside any request, and
	// brsmn_plan_patches_total{result="full"} misses a serving-path replan
	// that found the patch planner busy with the other client's miss.
	var innerUs, replayedUs float64
	if r.t.pool == nil {
		innerUs = 1e6 * per(execS, reqs)
		replayedUs = per((uncached-patched)*rp.missWorkUs+patched*rp.patchWorkUs, reqs)
	} else {
		innerUs = handlerUs - shardPerReqUs
		stateless := 0.0
		for _, s := range r.spans {
			if s.kind == opStateless {
				stateless++
			}
		}
		replayedUs = per(stateless*(rp.statelessUs+rp.decodeUs), reqs)
	}
	residualPct := 0.0
	if clientUs > 0 {
		residualPct = 100 * (innerUs - replayedUs) / clientUs
	}

	m := map[string]metric{
		"transport.us_per_op": {clientUs - handlerUs, "us"},
		"api.self_us":         {handlerUs - shardPerReqUs, "us"},
		"api.resp_kb":         {per(planBytes, plans) / 1024, "KiB"},
		"api.decode_us":       {rp.decodeUs, "us"},

		"shard.wait_us":    {1e6 * per(waitS, waitN), "us"},
		"shard.exec_us":    {1e6 * per(execS, execN), "us"},
		"shard.signal_us":  {1e6 * per(sigS, sigN), "us"},
		"shard.batch_mean": {per(d.sum("brsmn_shard_batch_size_sum"), d.sum("brsmn_shard_batch_size_count")), "ops"},
		"shard.shed":       {d.sum("brsmn_shard_shed_total"), "count"},

		"groupd.hits":         {hits, "count"},
		"groupd.misses":       {misses, "count"},
		"groupd.hit_ratio":    {per(hits, hits+misses), "ratio"},
		"groupd.replans":      {replans, "count"},
		"groupd.replan_us":    {1e6 * per(d.sum("brsmn_replan_duration_seconds_sum"), d.sum("brsmn_replan_duration_seconds_count")), "us"},
		"groupd.patches":      {patched, "count"},
		"groupd.patch_ratio":  {per(patched, misses), "ratio"},
		"groupd.patch_us":     {1e6 * per(d.sum("brsmn_plan_patch_duration_seconds_sum"), d.sum("brsmn_plan_patch_duration_seconds_count")), "us"},
		"groupd.evictions":    {d.sum("brsmn_plan_cache_ops_total", `op="eviction"`), "count"},
		"groupd.epochs":       {epochs, "count"},
		"groupd.epoch_ms":     {1e3 * per(d.sum("brsmn_epoch_duration_seconds_sum"), d.sum("brsmn_epoch_duration_seconds_count")), "ms"},
		"groupd.epoch_rounds": {per(d.sum("brsmn_epoch_rounds_sum"), d.sum("brsmn_epoch_rounds_count")), "rounds"},

		"sched.schedule_ms":       {rp.scheduleMs, "ms"},
		"controller.route_all_ms": {rp.routeAllMs, "ms"},

		"mcast.new_us":         {rp.mcastNewUs, "us"},
		"core.route_us":        {rp.routeUs, "us"},
		"core.patch_us":        {rp.patchUs, "us"},
		"core.new_us":          {rp.coreNewUs, "us"},
		"core.route_dense_us":  {rp.routeDenseUs, "us"},
		"fabric.flatten_us":    {rp.flattenUs, "us"},
		"plancodec.encode_us":  {rp.encodeUs, "us"},
		"plancodec.blob_kb":    {rp.blobKB, "KiB"},
		"trace.residual_pct":   {residualPct, "%"},
		"tail.plan_p99_ms":     {quantile(r.plan, 0.99), "ms"},
		"tail.change_p99_ms":   {quantile(r.change, 0.99), "ms"},
		"traced.plan_p50_ms":   e2e["plan_p50_ms"],
		"traced.cpu_ms_per_op": e2e["cpu_ms_per_op"],
		"host.steal_pct":       {r.stealPct, "%"},
		"ops_per_s":            {ops / r.elapsed.Seconds(), "1/s"},
	}
	for k, v := range m {
		if math.IsNaN(v.Value) {
			m[k] = metric{0, v.Unit}
		}
	}
	return m
}
