package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/corr"
	"repro/internal/history"
	"repro/internal/hlm"
	"repro/internal/mrf"
	"repro/internal/obs"
	"repro/internal/seedsel"
)

// buildIncremental mints a successor view from old for the rolled-forward
// history db, at a cost proportional to the dirty set rather than the city:
//
//   - the correlation graph is re-scored only around the dirty roads
//     (corr.Rescore; exactly equal to a full corr.Build over db),
//   - the BP topology is built fresh, exactly as a full build does it
//     (mrf.NewTopology; O(E·deg), cheap next to re-scoring), so it matches
//     the full build's slot for slot,
//   - the HLM re-fits only the roads the delta can reach (hlm.Retrain;
//     copied roads' group-level predictors go stale, the one approximation
//     of the whole path — see the Retrain doc and the equivalence property
//     test),
//   - seed selection re-derives its problem in full (it is the cheapest
//     stage and its benefit weights shift with every dirty road).
//
// The successor inherits nothing from the traffic its predecessor served:
// like every view, it is a function of its history alone.
func buildIncremental(ctx context.Context, old *View, db *history.DB, dirty *history.Dirty, opts Options, version uint64) (*View, error) {
	start := time.Now()
	ctx, buildSpan := obs.StartSpan(ctx, "core.rebuild_incremental")
	defer buildSpan.End()

	var graph *corr.Graph
	if err := timeStage(ctx, "corr_rescore", func() (err error) {
		graph, err = corr.Rescore(old.graph, old.net, db, dirty.Roads, opts.Corr)
		return err
	}); err != nil {
		return nil, fmt.Errorf("core: re-scoring correlation graph: %w", err)
	}

	var trendTopo *mrf.Topology
	if err := timeStage(ctx, "trend_topology", func() (err error) {
		trendTopo, err = mrf.NewTopology(graph)
		return err
	}); err != nil {
		return nil, fmt.Errorf("core: building trend topology: %w", err)
	}

	dirtyMask := make([]bool, db.NumRoads())
	for _, r := range dirty.Roads {
		dirtyMask[r] = true
	}
	var model *hlm.Model
	if err := timeStage(ctx, "hlm_retrain", func() (err error) {
		model, err = hlm.Retrain(old.hlm, graph, db, dirtyMask)
		return err
	}); err != nil {
		return nil, fmt.Errorf("core: retraining HLM: %w", err)
	}

	var problem *seedsel.Problem
	if err := timeStage(ctx, "seedsel_prepare", func() (err error) {
		problem, err = seedsel.NewProblem(graph, seedsel.BenefitWeights(old.net, db), opts.SeedSel)
		return err
	}); err != nil {
		return nil, fmt.Errorf("core: preparing seed selection: %w", err)
	}

	return &View{
		version: version, builtAt: start, buildDur: time.Since(start),
		obsCount: db.ObservationCount(),
		net:      old.net, db: db, graph: graph, hlm: model,
		problem: problem, selector: old.selector, engine: old.engine,
		trendTopo: trendTopo, rebuildMode: "incremental",
	}, nil
}
