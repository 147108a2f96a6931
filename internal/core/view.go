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
	"repro/internal/roadnet"
	"repro/internal/seedsel"
)

// View is one immutable, versioned generation of the trained system: the
// correlation graph, the hierarchical linear model, the seed-selection
// problem and the trend topology, all derived from the history snapshot the
// view was trained on, stamped with a monotonically increasing version and
// build metadata, plus the seed set it is specialised to and the phase
// methods an estimation round drives (see round.go). A View never changes
// after construction, so estimation rounds may run concurrently with each
// other — and with a Store publishing a successor, since a round in flight
// keeps the View it resolved at entry. cmd/tslint's modelmut analyzer
// enforces this: build is the only function that writes through a View's
// fields, and build publishes nothing, so no view is written once
// published.
//
// Seed specialisation derives a new View rather than changing one: WithSeeds
// and SelectSeeds return a View that shares everything build trained with
// the receiver and carries its own seed-conditional model, which holds its
// seed set, and WithSeeds(ctx, nil) is the unspecialised view. Rounds leave
// nothing behind, so a view, and any successor an incremental rebuild mints
// from it, answers as a function of its history and seed set alone, never
// of the traffic it served. A view runs one trend engine, Options.Engine or
// the served BP; a caller-configured one is only as safe as the engine
// itself.
type View struct {
	*trained

	// seedModel is the HLM's seed-conditional regressions for the seed set
	// the view is specialised to, and holds that set; it is nil on an
	// unspecialised view.
	seedModel *hlm.SeedModel
}

// trained is the part of a View that build trains. Every view WithSeeds
// derives from one shares it.
type trained struct {
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
	var v *View
	_, err := obs.Time(ctx, span, func(ctx context.Context) error {
		var graph *corr.Graph
		if err := timeStage(ctx, "corr_build", func(context.Context) (err error) {
			graph, err = corr.Build(net, db, opts.Corr)
			return err
		}); err != nil {
			return fmt.Errorf("core: building correlation graph: %w", err)
		}
		var model *hlm.Model
		if err := timeStage(ctx, hlmStage, func(context.Context) (err error) {
			if prev == nil {
				model, err = hlm.Train(graph, db, hlm.Config{Levels: hlm.PoolingLevels(net)})
				return err
			}
			mask := make([]bool, db.NumRoads())
			for _, r := range dirty {
				mask[r] = true
			}
			model, err = hlm.Retrain(prev.hlm, graph, db, mask)
			return err
		}); err != nil {
			return fmt.Errorf("core: training HLM: %w", err)
		}
		var problem *seedsel.Problem
		if err := timeStage(ctx, "seedsel_prepare", func(context.Context) (err error) {
			problem, err = seedsel.NewProblem(graph, seedsel.BenefitWeights(net, db))
			return err
		}); err != nil {
			return fmt.Errorf("core: preparing seed selection: %w", err)
		}
		var trendTopo *mrf.Topology
		if err := timeStage(ctx, "trend_topology", func(context.Context) (err error) {
			trendTopo, err = mrf.NewTopology(graph, trendTemper)
			return err
		}); err != nil {
			return fmt.Errorf("core: building trend topology: %w", err)
		}
		engine := opts.Engine
		if engine == nil {
			bp, err := mrf.NewBP(opts.BP)
			if err != nil {
				return fmt.Errorf("core: building BP engine: %w", err)
			}
			engine = bp
		}
		selector := opts.Selector
		if selector == nil {
			selector = seedsel.Lazy{}
		}
		v = &View{trained: &trained{
			version: version, builtAt: start, buildDur: time.Since(start),
			obsCount: db.ObservationCount(),
			net:      net, db: db, graph: graph, hlm: model,
			problem: problem, selector: selector, engine: engine,
			trendTopo: trendTopo, rebuildMode: rebuildMode(prev),
		}}
		return nil
	})
	return v, err
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

// SelectSeeds chooses k seed roads with the configured selector and returns
// the view specialised to them (see WithSeeds) with the seeds. The selector
// stops between marginal-gain evaluations once ctx is cancelled, and the
// specialisation is then skipped entirely.
func (v *View) SelectSeeds(ctx context.Context, k int) (*View, []roadnet.RoadID, error) {
	seeds, err := v.selector.SelectCtx(ctx, v.problem, k)
	if err != nil {
		return nil, nil, err
	}
	sv, err := v.WithSeeds(ctx, seeds)
	if err != nil {
		return nil, nil, err
	}
	return sv, seeds, nil
}

// WithSeeds returns the view specialised to a fixed seed set (the online
// deployment step after seed selection): it shares everything build trained
// with v, and its rounds regress through seed-conditional models trained
// for seeds whenever a round's reports overlap the set. WithSeeds(ctx, nil)
// is the unspecialised view, whose rounds use the generic propagation model
// alone. A road out of range or given twice is refused as ErrInvalidInput,
// as EstimateFromCrowd refuses a road reported twice. v is returned as is
// when it already is specialised to a non-empty set equal to seeds, in any
// order, so asking again trains nothing. ctx is checked at the
// specialisation stage boundary.
func (v *View) WithSeeds(ctx context.Context, seeds []roadnet.RoadID) (*View, error) {
	if len(seeds) == 0 {
		return &View{trained: v.trained}, nil
	}
	seen := make([]bool, v.net.NumRoads())
	for _, s := range seeds {
		if int(s) < 0 || int(s) >= len(seen) {
			return nil, fmt.Errorf("core: seed road %d out of range [0,%d): %w", s, len(seen), ErrInvalidInput)
		}
		if seen[s] {
			return nil, fmt.Errorf("core: duplicate seed road %d: %w", s, ErrInvalidInput)
		}
		seen[s] = true
	}
	if v.seedModel != nil && v.seedModel.SpecializedTo(seeds) {
		return v, nil
	}
	var sm *hlm.SeedModel
	if err := timeStage(ctx, "seed_specialize", func(context.Context) (err error) {
		sm, err = v.hlm.Specialize(v.db, seeds, hlm.SeedCandidates(v.net, seeds))
		return err
	}); err != nil {
		return nil, fmt.Errorf("core: specialising to seed set: %w", err)
	}
	return &View{trained: v.trained, seedModel: sm}, nil
}

// SeedBenefit evaluates the benefit function on a seed set (diagnostics and
// experiments).
func (v *View) SeedBenefit(seeds []roadnet.RoadID) float64 {
	return v.problem.Benefit(seeds)
}
