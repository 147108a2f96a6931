package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/bench/benchtrace"
)

// untracedEvery marks every untracedEvery-th estimate of a traced run's
// workers as untraced; the latency difference between the two groups is the
// cost of recording.
const untracedEvery = 3

// snapshot fetches and resets the traced server's records.
func (c *client) snapshot(ctx context.Context) (*benchtrace.Snapshot, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+benchtrace.SnapshotPath, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("fetching trace snapshot: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("fetching trace snapshot: status %d", resp.StatusCode)
	}
	snap := &benchtrace.Snapshot{}
	if err := json.NewDecoder(resp.Body).Decode(snap); err != nil {
		return nil, fmt.Errorf("decoding trace snapshot: %w", err)
	}
	return snap, nil
}

// family sums a counter's value, or a histogram's sum and count, over the
// children of a registry family whose labels include the given pairs.
func family(s *benchtrace.Snapshot, name string, labels ...string) (value, sum, count float64) {
	for _, m := range s.Metrics[name].Metrics {
		match := true
		for i := 0; i+1 < len(labels); i += 2 {
			match = match && m.Labels[labels[i]] == labels[i+1]
		}
		if !match {
			continue
		}
		if m.Value != nil {
			value += *m.Value
		}
		if m.Sum != nil {
			sum += *m.Sum
		}
		if m.Count != nil {
			count += float64(*m.Count)
		}
	}
	return value, sum, count
}

// delta returns a family's value, sum and count change from a to b.
func delta(a, b *benchtrace.Snapshot, name string, labels ...string) (value, sum, count float64) {
	av, as, ac := family(a, name, labels...)
	bv, bs, bc := family(b, name, labels...)
	return bv - av, bs - as, bc - ac
}

// stageMean is the mean wall time of one core build stage over the process
// lifetime: set-up, plus any rebuilds.
func stageMean(s *benchtrace.Snapshot, stage string) float64 {
	_, sum, count := family(s, "trendspeed_core_stage_duration_seconds", "stage", stage)
	return ratio(sum, count)
}

// layerMetrics attributes the traced run's measured phase to layers, from the
// client's own view of each request, the traced server's per-request records,
// and the registry and runtime counters differenced from before to after;
// cpu is the server's CPU time over the phase. Each percentile needs tail
// samples beyond it.
func layerMetrics(results []result, before, after *benchtrace.Snapshot, cpu time.Duration, tail int) ([]metric, error) {
	recs := make(map[string]*benchtrace.Request, len(after.Requests))
	for i := range after.Requests {
		recs[after.Requests[i].ID] = &after.Requests[i]
	}
	var (
		lag, handler, apiSelf, transport       []float64
		round, coreSelf, prePass, trend, speed []float64
		infer, traced, untraced                []float64
		estBytes, estimates, bufferedMax       int
		roundSum, inferSum, inferCalls         int64
		seedsBusy, selectBusy, specializeBusy  int64
		estimateBusy, ingestBusy               int64
	)
	for i := range results {
		r := &results[i]
		lag = append(lag, durMS(r.lag()))
		if r.kind == opEstimate {
			estBytes += r.bytes
			estimates++
		}
		if r.kind == opIngest && r.buffered > bufferedMax {
			bufferedMax = r.buffered
		}
		if r.untraced {
			untraced = append(untraced, durMS(r.service()))
			continue
		}
		q := recs[r.id]
		if q == nil {
			return nil, fmt.Errorf("traced server has no record of request %s", r.id)
		}
		switch r.kind {
		case opEstimate:
			if q.Round == 0 || q.Infers == 0 {
				return nil, fmt.Errorf("request %s: core round or inference spans missing from the trace", r.id)
			}
			traced = append(traced, durMS(r.service()))
			estimateBusy += q.Handler
			handler = append(handler, nsToMS(q.Handler))
			apiSelf = append(apiSelf, nsToMS(q.Handler-q.Round))
			transport = append(transport, durMS(r.service())-nsToMS(q.Handler))
			round = append(round, nsToMS(q.Round))
			coreSelf = append(coreSelf, nsToMS(q.Round-q.PrePass-q.Trend-q.Speed))
			prePass = append(prePass, nsToMS(q.PrePass))
			trend = append(trend, nsToMS(q.Trend))
			speed = append(speed, nsToMS(q.Speed))
			infer = append(infer, nsToMS(q.Infer))
			roundSum += q.Round
			inferSum += q.Infer
			inferCalls += int64(q.Infers)
		case opSeeds:
			seedsBusy += q.Handler
			selectBusy += q.Select
			specializeBusy += q.Specialize
		case opIngest:
			ingestBusy += q.Handler
		}
	}
	handlerBusy := float64(estimateBusy + seedsBusy + ingestBusy)
	var buildSum int64
	for _, b := range after.Builds {
		buildSum += b
	}

	hits, _, _ := delta(before, after, "trendspeed_api_seed_cache_hits_total")
	misses, _, _ := delta(before, after, "trendspeed_api_seed_cache_misses_total")
	full, _, _ := delta(before, after, "trendspeed_model_rebuilds_total", "outcome", "success", "mode", "full")
	incr, _, _ := delta(before, after, "trendspeed_model_rebuilds_total", "outcome", "success", "mode", "incremental")
	_, rebuildSum, _ := delta(before, after, "trendspeed_model_rebuild_duration_seconds")
	var stageSum float64
	for _, st := range []string{"corr_build", "corr_rescore", "hlm_train", "hlm_retrain", "seedsel_prepare", "trend_topology"} {
		_, s, _ := delta(before, after, "trendspeed_core_stage_duration_seconds", "stage", st)
		stageSum += s
	}
	_, iterSum, iterCount := delta(before, after, "trendspeed_bp_iterations")
	runs, _, _ := delta(before, after, "trendspeed_bp_runs_total")
	nonconv, _, _ := delta(before, after, "trendspeed_bp_nonconverged_total")
	updates, _, _ := delta(before, after, "trendspeed_bp_message_updates_total")
	reevals, _, _ := delta(before, after, "trendspeed_seedsel_reevaluations_total")
	selects, _, _ := delta(before, after, "trendspeed_seedsel_selections_total")
	updatesPerInfer := ratio(updates, runs)
	ops := float64(len(results))

	l := metricList{tail: tail}
	lat := estimateLatencies(results)
	l.percentile("client.estimate_p50_ms", lat, 0.5, "ms")
	l.percentile("client.estimate_p75_ms", lat, 0.75, "ms")
	l.percentile("loadgen.lag_ms_p75", lag, 0.75, "ms")
	l.add("server.cpu_ms_per_op", cpuPerOp(cpu, results), "ms")
	l.percentile("api.estimate_handler_ms_p50", handler, 0.5, "ms")
	l.percentile("api.estimate_self_ms_p50", apiSelf, 0.5, "ms")
	l.percentile("api.transport_ms_p50", transport, 0.5, "ms")
	l.add("api.response_kb_per_estimate", ratio(float64(estBytes), float64(estimates))/1024, "KB")
	l.add("api.seeds_busy_share", ratio(float64(seedsBusy), handlerBusy), "ratio")
	l.add("api.seed_cache_hit_ratio", ratio(hits, hits+misses), "ratio")
	l.add("api.ingest_busy_share", ratio(float64(ingestBusy), handlerBusy), "ratio")
	l.percentile("core.round_ms_p50", round, 0.5, "ms")
	l.percentile("core.round_ms_p75", round, 0.75, "ms")
	l.percentile("core.self_ms_p50", coreSelf, 0.5, "ms")
	l.add("core.rebuilds_full", full, "count")
	l.add("core.rebuilds_incremental", incr, "count")
	l.add("core.model_build_s_mean", ratio(float64(buildSum)/1e9, float64(len(after.Builds))), "s")
	l.add("core.rebuild_unattributed_share", max(0, ratio(rebuildSum-stageSum, rebuildSum)), "ratio")
	l.add("core.buffered_obs_max", float64(bufferedMax), "count")
	l.percentile("hlm.pre_pass_ms_p50", prePass, 0.5, "ms")
	l.percentile("hlm.speed_ms_p50", speed, 0.5, "ms")
	l.add("hlm.specialize_share", ratio(float64(specializeBusy), float64(seedsBusy)), "ratio")
	l.add("hlm.train_s", stageMean(after, "hlm_train"), "s")
	l.percentile("mrf.trend_ms_p50", trend, 0.5, "ms")
	l.percentile("mrf.infer_ms_p50", infer, 0.5, "ms")
	l.add("mrf.infer_share", ratio(float64(inferSum), float64(roundSum)), "ratio")
	l.add("mrf.iterations_mean", ratio(iterSum, iterCount), "count")
	l.add("mrf.msg_updates_per_infer", updatesPerInfer, "count")
	l.add("mrf.ns_per_msg_update", ratio(ratio(float64(inferSum), float64(inferCalls)), updatesPerInfer), "ns")
	l.add("mrf.nonconverged_frac", ratio(nonconv, runs), "ratio")
	l.add("corr.build_s", stageMean(after, "corr_build"), "s")
	l.add("seedsel.prepare_s", stageMean(after, "seedsel_prepare"), "s")
	l.add("seedsel.select_share", ratio(float64(selectBusy), float64(seedsBusy)), "ratio")
	l.add("seedsel.reevals_per_select", ratio(reevals, selects), "count")
	l.add("runtime.alloc_kb_per_op", ratio(float64(after.TotalAlloc-before.TotalAlloc)/1024, ops), "KB")
	l.add("runtime.gc_cycles_per_100ops", ratio(100*float64(after.NumGC-before.NumGC), ops), "count")
	tracedP50, err1 := percentile(hist(traced), 0.5, tail)
	untracedP50, err2 := percentile(hist(untraced), 0.5, tail)
	if l.err == nil && (err1 != nil || err2 != nil) {
		l.err = fmt.Errorf("trace.overhead_ms: %v %v", err1, err2)
	}
	l.add("trace.overhead_ms", tracedP50-untracedP50, "ms")
	return l.ms, l.err
}
