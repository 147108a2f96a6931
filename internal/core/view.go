package core

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/corr"
	"repro/internal/geo"
	"repro/internal/history"
	"repro/internal/hlm"
	"repro/internal/mrf"
	"repro/internal/obs"
	"repro/internal/roadnet"
	"repro/internal/seedsel"
)

// View is one immutable, versioned generation of the trained system: the
// correlation graph, the hierarchical linear model, the seed-selection
// problem and the trend topology, all derived from the history snapshot the
// view was trained on, stamped with a monotonically increasing version and
// build metadata, plus the phase methods an estimation round drives (see
// round.go). Everything build produces is immutable, so estimation rounds
// may run concurrently with each other — and with a Store swapping in a
// successor, since a round in flight keeps the View it resolved at entry.
// cmd/tslint's modelmut and pubsafe analyzers enforce this: build is the
// only constructor.
//
// The one piece of mutable state is the seed-conditional specialization
// retrained by Prepare/SelectSeeds. It is published as an immutable snapshot
// through an atomic pointer: Prepare builds the new specialization off to
// the side and swaps it in, and every estimation round loads exactly one
// snapshot at entry and uses only that. Rounds leave nothing behind, so a
// view, and any successor an incremental rebuild mints from it, answers as
// a function of its history and seed set alone, never of the traffic it
// served. A caller-configured engine (EstimateOptions.Engine) is only as
// safe as the engine itself.
type View struct {
	version  uint64
	builtAt  time.Time
	buildDur time.Duration
	obsCount int

	net   *roadnet.Network
	db    *history.DB
	graph *corr.Graph
	hlm   *hlm.Model

	problem  *seedsel.Problem
	selector seedsel.ContextSelector
	engine   mrf.Engine

	// trendTopo is the trend MRF's message-passing structure over the
	// correlation graph, its edges tempered by trendTemper. It is built once
	// here, so per-round trend models skip the O(E·deg) rebuild.
	trendTopo *mrf.Topology

	// seedModel is the snapshot of the model specialised to the last
	// Prepare'd seed set; nil until Prepare (or SelectSeeds) runs. Rounds
	// load it once at entry (see estimateWith).
	seedModel atomic.Pointer[hlm.SeedModel]

	// rebuildMode records how this view was built: "full" (from-scratch
	// training, including version 1) or "incremental" (delta rebuild from a
	// predecessor, see build).
	rebuildMode string
}

// NewView trains a version-1 view over the whole city. This is the expensive
// offline phase; rounds are cheap enough for real-time use. Deployments that
// want rebuilds use a Store.
func NewView(net *roadnet.Network, db *history.DB, opts Options) (*View, error) {
	//lint:ignore ctxflow NewView is the documented ctx-less offline constructor; Store rebuilds pass their lifetime ctx through build directly
	return build(context.Background(), net, db, opts, 1, nil, nil)
}

// build builds the correlation graph, trains the HLM and prepares seed
// selection and the trend topology, returning a view stamped with version.
// The Store mints successor views with it under its lifetime context, so
// Close aborts an in-flight rebuild at the next stage boundary (via
// timeStage's ctx check).
//
// A nil prev trains from scratch. A predecessor makes it the delta rebuild
// of prev for db, which differs from prev's history only on the dirty roads:
//
//   - the HLM re-fits only the roads the delta can reach (hlm.Retrain;
//     copied roads' group-level predictors go stale, the one approximation
//     of the delta path — see the Retrain doc and the equivalence test),
//   - the correlation graph (corr.Build), seed selection and the trend
//     topology are derived in full either way, so the delta path's graph is
//     a full build's.
//
// The predecessor alone picks the HLM stage's function and name, the build
// span and the view's rebuild mode. The successor inherits nothing from the
// traffic its predecessor served: like every view, it is a function of its
// history alone.
func build(ctx context.Context, net *roadnet.Network, db *history.DB, opts Options, version uint64, prev *View, dirty []roadnet.RoadID) (*View, error) {
	if net == nil || db == nil {
		return nil, fmt.Errorf("core: network and history are required")
	}
	if net.NumRoads() != db.NumRoads() {
		return nil, fmt.Errorf("core: network has %d roads, history covers %d", net.NumRoads(), db.NumRoads())
	}
	start := time.Now()
	span, hlmStage := "core.new", "hlm_train"
	if prev != nil {
		span, hlmStage = "core.rebuild_incremental", "hlm_retrain"
	}
	ctx, buildSpan := obs.StartSpan(ctx, span)
	defer buildSpan.End()
	var graph *corr.Graph
	if err := timeStage(ctx, "corr_build", func() (err error) {
		graph, err = corr.Build(net, db, opts.Corr)
		return err
	}); err != nil {
		return nil, fmt.Errorf("core: building correlation graph: %w", err)
	}
	var model *hlm.Model
	if err := timeStage(ctx, hlmStage, func() (err error) {
		if prev == nil {
			// The HLM's pooled levels: road class (same-class roads
			// co-move city-wide), local area (congestion is spatially
			// smooth) and the whole city (global demand swings).
			model, err = hlm.Train(graph, db, hlm.Config{Levels: poolingLevels(net)})
			return err
		}
		mask := make([]bool, db.NumRoads())
		for _, r := range dirty {
			mask[r] = true
		}
		model, err = hlm.Retrain(prev.hlm, graph, db, mask)
		return err
	}); err != nil {
		return nil, fmt.Errorf("core: training HLM: %w", err)
	}
	var problem *seedsel.Problem
	if err := timeStage(ctx, "seedsel_prepare", func() (err error) {
		problem, err = seedsel.NewProblem(graph, seedsel.BenefitWeights(net, db))
		return err
	}); err != nil {
		return nil, fmt.Errorf("core: preparing seed selection: %w", err)
	}
	var trendTopo *mrf.Topology
	if err := timeStage(ctx, "trend_topology", func() (err error) {
		trendTopo, err = mrf.NewTopology(graph, trendTemper)
		return err
	}); err != nil {
		return nil, fmt.Errorf("core: building trend topology: %w", err)
	}
	engine := opts.Engine
	if engine == nil {
		bp, err := mrf.NewBP(opts.BP)
		if err != nil {
			return nil, fmt.Errorf("core: building BP engine: %w", err)
		}
		engine = bp
	}
	selector := opts.Selector
	if selector == nil {
		selector = seedsel.Lazy{}
	}
	return &View{
		version: version, builtAt: start, buildDur: time.Since(start),
		obsCount: db.ObservationCount(),
		net:      net, db: db, graph: graph, hlm: model,
		problem: problem, selector: selector, engine: engine,
		trendTopo: trendTopo, rebuildMode: rebuildMode(prev),
	}, nil
}

// rebuildMode names the build a predecessor selects: a nil prev trains from
// scratch ("full"), any other is a delta rebuild ("incremental").
func rebuildMode(prev *View) string {
	if prev == nil {
		return "full"
	}
	return "incremental"
}

// Version returns the view's monotonically increasing version stamp: 1 for
// a freshly built view; a Store mints successors.
func (v *View) Version() uint64 { return v.version }

// BuiltAt returns the wall-clock time training started.
func (v *View) BuiltAt() time.Time { return v.builtAt }

// BuildDuration returns how long the offline build took.
func (v *View) BuildDuration() time.Duration { return v.buildDur }

// ObservationCount returns the number of slot-level history samples the
// view was trained on.
func (v *View) ObservationCount() int { return v.obsCount }

// RebuildMode reports how the view was built: "full" for a from-scratch
// train (including version 1) or "incremental" for a delta rebuild.
func (v *View) RebuildMode() string { return v.rebuildMode }

// Net returns the road network.
func (v *View) Net() *roadnet.Network { return v.net }

// DB returns the historical database snapshot the view was trained on.
func (v *View) DB() *history.DB { return v.db }

// Graph returns the correlation graph.
func (v *View) Graph() *corr.Graph { return v.graph }

// HLM returns the trained hierarchical linear model.
func (v *View) HLM() *hlm.Model { return v.hlm }

// Problem returns the prepared seed-selection instance.
func (v *View) Problem() *seedsel.Problem { return v.problem }

// SelectSeeds chooses k seed roads with the configured selector and
// prepares the seed-conditional inference model for them, unless v's seed
// model already is specialised to that set: Prepare would publish the same
// model again. The selector stops between marginal-gain evaluations once
// ctx is cancelled, and the specialization is then skipped entirely.
func (v *View) SelectSeeds(ctx context.Context, k int) ([]roadnet.RoadID, error) {
	seeds, err := v.selector.SelectCtx(ctx, v.problem, k)
	if err != nil {
		return nil, err
	}
	if sm := v.seedModel.Load(); sm != nil && sm.SpecializedTo(seeds) {
		return seeds, nil
	}
	if err := v.Prepare(ctx, seeds); err != nil {
		return nil, err
	}
	return seeds, nil
}

// Prepare trains the seed-conditional regressions for a fixed seed set (the
// online deployment step after seed selection). Rounds run before Prepare —
// or with a seed set disjoint from the prepared one — use the generic
// propagation model.
//
// Prepare is safe to call while rounds are in flight: the new specialization
// is trained entirely off to the side and published atomically; rounds
// already running keep the snapshot they loaded at entry. Concurrent Prepare
// calls are individually safe and last-write-wins, matching the "model of the
// last Prepare'd seed set" contract. ctx is checked at the specialization
// stage boundary; a cancelled Prepare publishes nothing, so the previous
// snapshot stays live.
func (v *View) Prepare(ctx context.Context, seeds []roadnet.RoadID) error {
	for _, s := range seeds {
		if int(s) < 0 || int(s) >= v.net.NumRoads() {
			return fmt.Errorf("core: seed road %d out of range [0,%d): %w", s, v.net.NumRoads(), ErrInvalidInput)
		}
	}
	var sm *hlm.SeedModel
	if err := timeStage(ctx, "seed_specialize", func() (err error) {
		sm, err = v.hlm.Specialize(v.db, seeds, v.seedCandidates(seeds))
		return err
	}); err != nil {
		return fmt.Errorf("core: specialising to seed set: %w", err)
	}
	v.seedModel.Store(sm)
	return nil
}

// seedCandidates returns a provider of correlation-scoring candidates for
// Specialize: the spatially nearest seeds plus the nearest seeds of the
// road's own class (same-class roads co-move even when far apart).
func (v *View) seedCandidates(seeds []roadnet.RoadID) func(roadnet.RoadID) []roadnet.RoadID {
	type seedPos struct {
		id    roadnet.RoadID
		pos   geo.Point
		class roadnet.RoadClass
	}
	positions := make([]seedPos, len(seeds))
	for i, s := range seeds {
		road := v.net.Road(s)
		positions[i] = seedPos{id: s, pos: road.Geometry.At(road.Length() / 2), class: road.Class}
	}
	return func(r roadnet.RoadID) []roadnet.RoadID {
		road := v.net.Road(r)
		mid := road.Geometry.At(road.Length() / 2)
		type cand struct {
			id   roadnet.RoadID
			dist float64
		}
		var all, same []cand
		for _, sp := range positions {
			c := cand{id: sp.id, dist: mid.Dist(sp.pos)}
			all = append(all, c)
			if sp.class == road.Class {
				same = append(same, c)
			}
		}
		byDist := func(cs []cand) {
			sort.Slice(cs, func(i, j int) bool {
				if cs[i].dist != cs[j].dist {
					return cs[i].dist < cs[j].dist
				}
				return cs[i].id < cs[j].id
			})
		}
		byDist(all)
		byDist(same)
		seen := map[roadnet.RoadID]bool{}
		var out []roadnet.RoadID
		take := func(cs []cand, n int) {
			for i := 0; i < len(cs) && i < n; i++ {
				if !seen[cs[i].id] {
					seen[cs[i].id] = true
					out = append(out, cs[i].id)
				}
			}
		}
		take(all, 8)
		take(same, 6)
		return out
	}
}

// SeedBenefit evaluates the benefit function on a seed set (diagnostics and
// experiments).
func (v *View) SeedBenefit(seeds []roadnet.RoadID) float64 {
	return v.problem.Benefit(seeds)
}
