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

// Model is one immutable, versioned training artifact: the correlation
// graph, the hierarchical linear model, the seed-selection problem and the
// trend topology, all derived from the history snapshot the model was
// trained on, stamped with a monotonically increasing version and build
// metadata. Everything build produces is immutable, so estimation rounds may
// run concurrently with each other — and with a Store swapping in a successor
// model, since a round in flight keeps the View it resolved at entry.
//
// The one piece of mutable state is the seed-conditional specialization
// retrained by Prepare/SelectSeeds. It is published as an immutable snapshot
// through an atomic pointer: Prepare builds the new specialization off to
// the side and swaps it in, and every estimation round loads exactly one
// snapshot at entry and uses only that. The remaining caveat is
// caller-configured engines with internal randomness (e.g. Gibbs), which
// are only as safe as the engine itself.
type Model struct {
	version  uint64
	builtAt  time.Time
	buildDur time.Duration
	obsCount int

	net   *roadnet.Network
	db    *history.DB
	graph *corr.Graph
	hlm   *hlm.Model

	problem        *seedsel.Problem
	selector       seedsel.Selector
	engine         mrf.Engine
	seedTrendNoise float64
	preTrendNoise  float64
	trendTemper    float64

	// trendTopo is the BP message-passing structure of the correlation
	// graph, built once here so per-round trend models skip the O(E·deg)
	// rebuild.
	trendTopo *mrf.Topology

	// seedModel is the snapshot of the model specialised to the last
	// Prepare'd seed set; nil until Prepare (or SelectSeeds) runs. Rounds
	// load it once at entry (see View.estimateWith).
	seedModel atomic.Pointer[hlm.SeedModel]
	special   hlm.SpecializeConfig

	// rebuildMode records how this model was built: "full" (from-scratch
	// training, including version 1) or "incremental" (delta rebuild, see
	// buildIncremental).
	rebuildMode string

	// warm is the BP belief snapshot inherited from the predecessor at an
	// incremental rebuild; nil for full builds. It is fixed for the model's
	// lifetime — every trend inference on this model sees the same warm
	// input — so repeated identical rounds stay bit-identical.
	warm *mrf.Beliefs
	// lastBeliefs is the converged belief state of the most recent trend
	// inference round on this model; the successor minted by an incremental
	// rebuild adopts it as its warm start. Rounds only store here, never
	// read, which keeps them deterministic.
	lastBeliefs atomic.Pointer[mrf.Beliefs]
}

// build builds the correlation graph, trains the HLM and prepares seed
// selection and the trend topology, returning a model stamped with version.
// This is the expensive offline phase; rounds are cheap. NewView calls it per
// district, and the Store mints successor models with it under its lifetime
// context, so Close aborts an in-flight rebuild at the next stage boundary
// (via timeStage's ctx check).
func build(ctx context.Context, net *roadnet.Network, db *history.DB, opts Options, version uint64) (*Model, error) {
	if net == nil || db == nil {
		return nil, fmt.Errorf("core: network and history are required")
	}
	if net.NumRoads() != db.NumRoads() {
		return nil, fmt.Errorf("core: network has %d roads, history covers %d", net.NumRoads(), db.NumRoads())
	}
	start := time.Now()
	ctx, buildSpan := obs.StartSpan(ctx, "core.new")
	defer buildSpan.End()
	var graph *corr.Graph
	if err := timeStage(ctx, "corr_build", func() (err error) {
		graph, err = corr.Build(net, db, opts.Corr)
		return err
	}); err != nil {
		return nil, fmt.Errorf("core: building correlation graph: %w", err)
	}
	// The HLM's pooled levels: road class (same-class roads co-move
	// city-wide), local area (congestion is spatially smooth) and the whole
	// city (global demand swings).
	hlmCfg := opts.HLM
	if hlmCfg.Levels == nil {
		hlmCfg.Levels = poolingLevels(net)
	}
	var model *hlm.Model
	if err := timeStage(ctx, "hlm_train", func() (err error) {
		model, err = hlm.Train(graph, db, hlmCfg)
		return err
	}); err != nil {
		return nil, fmt.Errorf("core: training HLM: %w", err)
	}
	var problem *seedsel.Problem
	if err := timeStage(ctx, "seedsel_prepare", func() (err error) {
		problem, err = seedsel.NewProblem(graph, benefitWeightsFor(net, db, opts), opts.SeedSel)
		return err
	}); err != nil {
		return nil, fmt.Errorf("core: preparing seed selection: %w", err)
	}
	var trendTopo *mrf.Topology
	if err := timeStage(ctx, "trend_topology", func() (err error) {
		trendTopo, err = mrf.NewTopology(graph)
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
	noise := opts.SeedTrendNoise
	if noise == 0 {
		noise = 0.08
	}
	preNoise := opts.PreTrendNoise
	if preNoise == 0 {
		preNoise = 0.12
	}
	temper := opts.TrendTemper
	if temper == 0 {
		temper = 0.2
	}
	if temper < 0 || temper > 1 {
		return nil, fmt.Errorf("core: TrendTemper must be in (0, 1], got %v: %w", temper, ErrInvalidInput)
	}
	special := opts.Specialize
	if special == (hlm.SpecializeConfig{}) {
		special = hlm.DefaultSpecializeConfig()
	}
	return &Model{
		version: version, builtAt: start, buildDur: time.Since(start),
		obsCount: db.ObservationCount(),
		net:      net, db: db, graph: graph, hlm: model,
		problem: problem, selector: selector, engine: engine,
		seedTrendNoise: noise, preTrendNoise: preNoise, trendTemper: temper,
		trendTopo: trendTopo, special: special, rebuildMode: "full",
	}, nil
}

// Version returns the model's monotonically increasing version stamp: 1 for
// a freshly built view's districts; a Store mints successors.
func (m *Model) Version() uint64 { return m.version }

// BuiltAt returns the wall-clock time training started.
func (m *Model) BuiltAt() time.Time { return m.builtAt }

// BuildDuration returns how long the offline build took.
func (m *Model) BuildDuration() time.Duration { return m.buildDur }

// ObservationCount returns the number of slot-level history samples the
// model was trained on.
func (m *Model) ObservationCount() int { return m.obsCount }

// RebuildMode reports how the model was built: "full" for a from-scratch
// train (including version 1) or "incremental" for a delta rebuild.
func (m *Model) RebuildMode() string { return m.rebuildMode }

// Net returns the road network.
func (m *Model) Net() *roadnet.Network { return m.net }

// DB returns the historical database snapshot the model was trained on.
func (m *Model) DB() *history.DB { return m.db }

// Graph returns the correlation graph.
func (m *Model) Graph() *corr.Graph { return m.graph }

// HLM returns the trained hierarchical linear model.
func (m *Model) HLM() *hlm.Model { return m.hlm }

// Problem returns the prepared seed-selection instance.
func (m *Model) Problem() *seedsel.Problem { return m.problem }

// SelectSeeds chooses k seed roads with the configured selector and
// prepares the seed-conditional inference model for them. Selectors
// implementing seedsel.ContextSelector stop between marginal-gain
// evaluations once ctx is cancelled, and the seed-conditional specialization
// is skipped entirely. Plain selectors run to completion; ctx is still
// honoured at the stage boundaries around them.
func (m *Model) SelectSeeds(ctx context.Context, k int) ([]roadnet.RoadID, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var seeds []roadnet.RoadID
	var err error
	if cs, ok := m.selector.(seedsel.ContextSelector); ok {
		seeds, err = cs.SelectCtx(ctx, m.problem, k)
	} else {
		seeds, err = m.selector.Select(m.problem, k)
	}
	if err != nil {
		return nil, err
	}
	if err := m.Prepare(ctx, seeds); err != nil {
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
func (m *Model) Prepare(ctx context.Context, seeds []roadnet.RoadID) error {
	for _, s := range seeds {
		if int(s) < 0 || int(s) >= m.net.NumRoads() {
			return fmt.Errorf("core: seed road %d out of range [0,%d): %w", s, m.net.NumRoads(), ErrInvalidInput)
		}
	}
	var sm *hlm.SeedModel
	if err := timeStage(ctx, "seed_specialize", func() (err error) {
		sm, err = m.hlm.Specialize(m.db, seeds, m.seedCandidates(seeds), m.special)
		return err
	}); err != nil {
		return fmt.Errorf("core: specialising to seed set: %w", err)
	}
	m.seedModel.Store(sm)
	return nil
}

// seedCandidates returns a provider of correlation-scoring candidates for
// Specialize: the spatially nearest seeds plus the nearest seeds of the
// road's own class (same-class roads co-move even when far apart).
func (m *Model) seedCandidates(seeds []roadnet.RoadID) func(roadnet.RoadID) []roadnet.RoadID {
	type seedPos struct {
		id    roadnet.RoadID
		pos   geo.Point
		class roadnet.RoadClass
	}
	positions := make([]seedPos, len(seeds))
	for i, s := range seeds {
		road := m.net.Road(s)
		positions[i] = seedPos{id: s, pos: road.Geometry.At(road.Length() / 2), class: road.Class}
	}
	return func(r roadnet.RoadID) []roadnet.RoadID {
		road := m.net.Road(r)
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
func (m *Model) SeedBenefit(seeds []roadnet.RoadID) float64 {
	return m.problem.Benefit(seeds)
}

// seedRels converts validated absolute seed speeds into relative speeds
// against each road's historical mean; seeds without a usable mean are
// dropped — their relative speed is undefined.
func (m *Model) seedRels(slot int, seedSpeeds map[roadnet.RoadID]float64) map[roadnet.RoadID]float64 {
	seedRels := make(map[roadnet.RoadID]float64, len(seedSpeeds))
	for road, speed := range seedSpeeds {
		mean, ok := m.db.Mean(road, slot)
		if !ok || mean <= 0 {
			continue
		}
		seedRels[road] = speed / mean
	}
	return seedRels
}

// trendFreeRels runs the single trend-agnostic regression of the ablation-A1
// path (no graphical model at all).
func (m *Model) trendFreeRels(ctx context.Context, slot int, seedRels map[roadnet.RoadID]float64, seedModel *hlm.SeedModel, opts EstimateOptions) ([]float64, error) {
	var rels []float64
	//lint:hotpath-ok one span-bracketing thunk per phase per round (not per index); timePhase needs a closure to time and the round does O(roads) work inside it
	if err := timePhase(ctx, "speed", func() (err error) {
		rels, err = m.estimateRels(&hlm.Request{
			Slot: slot, SeedRels: seedRels, TrendUp: make([]bool, m.net.NumRoads()),
			TrendFree: true, Flat: opts.FlatHLM,
		}, seedModel, opts.NoSeedModel)
		return err
	}); err != nil {
		return nil, fmt.Errorf("core: trend-free inference: %w", err)
	}
	return rels, nil
}

// prePass is step 0: a trend-free magnitude pre-pass. Its relative-speed
// estimates carry trend information no binary propagation can recover (a
// road estimated at 0.8× its mean is almost surely trending down), so they
// become fusion evidence after the graphical model runs.
func (m *Model) prePass(ctx context.Context, slot int, seedRels map[roadnet.RoadID]float64, seedModel *hlm.SeedModel, noSeedModel bool) ([]float64, error) {
	preTrend := make([]bool, m.net.NumRoads()) // ignored in trend-free mode
	var preRels []float64
	//lint:hotpath-ok one span-bracketing thunk per phase per round (not per index); timePhase needs a closure to time and the round does O(roads) work inside it
	if err := timePhase(ctx, "pre_pass", func() (err error) {
		preRels, err = m.estimateRels(&hlm.Request{
			Slot: slot, SeedRels: seedRels, TrendUp: preTrend, TrendFree: true,
		}, seedModel, noSeedModel)
		return err
	}); err != nil {
		return nil, fmt.Errorf("core: magnitude pre-pass: %w", err)
	}
	return preRels, nil
}

// trendPriors builds the MRF node priors. They carry only *local* evidence —
// the historical trend prior, and for seed roads the soft probability that
// the trend is up given the noisy crowd observation (never a hard clamp: a
// report at 1.01× the mean must not drag its whole neighbourhood to "up").
// The spatially-correlated pre-pass evidence is fused after inference;
// feeding it into the node priors would make BP double-count it around every
// loop.
func (m *Model) trendPriors(slot int, seedRels map[roadnet.RoadID]float64) []float64 {
	n := m.net.NumRoads()
	priors := make([]float64, n)
	for r := 0; r < n; r++ {
		priors[r] = m.db.PUp(roadnet.RoadID(r), slot)
	}
	for road, rel := range seedRels {
		priors[road] = trendEvidence(rel, m.seedTrendNoise)
	}
	return priors
}

// inferTrends is step 1: trend inference over the MRF with the given node
// priors and warm-start beliefs. The converged beliefs are snapshotted for
// the successor model's warm start; rounds never read lastBeliefs, so the
// store cannot perturb them. The sharded pipeline calls this repeatedly with
// halo priors refreshed between stitch rounds, warm-starting each round from
// the previous one's beliefs.
func (m *Model) inferTrends(ctx context.Context, priors []float64, engineOverride mrf.Engine, warm *mrf.Beliefs) (*mrf.Result, error) {
	var trends *mrf.Result
	//lint:hotpath-ok one span-bracketing thunk per phase per round (not per index); timePhase needs a closure to time and the round does O(roads) work inside it
	if err := timePhase(ctx, "trend", func() error {
		model, err := mrf.NewModelWithTopology(m.trendTopo, priors)
		if err != nil {
			return fmt.Errorf("building trend model: %w", err)
		}
		if err := model.SetEdgeTemper(m.trendTemper); err != nil {
			return fmt.Errorf("tempering trend model: %w", err)
		}
		engine := engineOverride
		if engine == nil {
			engine = m.engine
		}
		trends, err = engine.Infer(ctx, model, nil, warm)
		return err
	}); err != nil {
		return nil, fmt.Errorf("core: trend inference: %w", err)
	}
	if trends.Beliefs != nil {
		m.lastBeliefs.Store(trends.Beliefs)
	}
	return trends, nil
}

// fuseTrends fuses the graphical posterior with the magnitude evidence in
// log-odds space: the two views — binary propagation and calibrated
// magnitude interpolation — fail in different places. Seed roads keep their
// own observation's evidence.
func (m *Model) fuseTrends(trendPUp, preRels []float64, seedRels map[roadnet.RoadID]float64) (pUp []float64, trendUp []bool) {
	n := len(trendPUp)
	pUp = make([]float64, n)
	trendUp = make([]bool, n)
	m.fuseTrendsInto(pUp, trendUp, trendPUp, preRels, seedRels)
	return pUp, trendUp
}

// fuseTrendsInto is the allocation-free core of fuseTrends: it writes the
// fused posterior into caller-provided slices (len(trendPUp) each), so the
// per-road fusion loop itself allocates nothing (TestFuseTrendsAllocs).
func (m *Model) fuseTrendsInto(pUp []float64, trendUp []bool, trendPUp, preRels []float64, seedRels map[roadnet.RoadID]float64) {
	for r := range trendPUp {
		pUp[r] = combineOdds(trendPUp[r], trendEvidence(preRels[r], m.preTrendNoise))
		trendUp[r] = pUp[r] >= 0.5
	}
	for road, rel := range seedRels {
		p := trendEvidence(rel, m.seedTrendNoise)
		pUp[road] = p
		trendUp[road] = p >= 0.5
	}
}

// speedRels is step 2: the trend-conditioned hierarchical regression.
func (m *Model) speedRels(ctx context.Context, slot int, seedRels map[roadnet.RoadID]float64, trendUp []bool, pUp []float64, seedModel *hlm.SeedModel, opts EstimateOptions) ([]float64, error) {
	var rels []float64
	//lint:hotpath-ok one span-bracketing thunk per phase per round (not per index); timePhase needs a closure to time and the round does O(roads) work inside it
	if err := timePhase(ctx, "speed", func() (err error) {
		rels, err = m.estimateRels(&hlm.Request{
			Slot:     slot,
			SeedRels: seedRels,
			TrendUp:  trendUp,
			PUp:      pUp,
			Flat:     opts.FlatHLM,
		}, seedModel, opts.NoSeedModel)
		return err
	}); err != nil {
		return nil, fmt.Errorf("core: speed inference: %w", err)
	}
	return rels, nil
}

// estimateRels routes an HLM request through the given seed-conditional
// snapshot when the request's seeds overlap it; otherwise the generic
// propagation model runs. The snapshot is the one the round loaded at entry,
// never re-read, so both regression passes of a round agree on the model.
func (m *Model) estimateRels(req *hlm.Request, seedModel *hlm.SeedModel, noSeedModel bool) ([]float64, error) {
	if seedModel != nil && !noSeedModel {
		overlap := 0
		for r := range req.SeedRels {
			if seedModel.SeedSet(r) {
				overlap++
			}
		}
		if overlap*2 >= len(req.SeedRels) && overlap > 0 {
			return seedModel.Estimate(req)
		}
	}
	return m.hlm.Estimate(req)
}
