// Package core assembles the paper's complete system, called TrendSpeed in
// this reproduction, as a versioned model lifecycle:
//
//   - Model (model.go) is one immutable training artifact: the
//     trend-correlation graph (internal/corr), the hierarchical linear model
//     (internal/hlm), the seed-selection problem (internal/seedsel) and the
//     trend topology (internal/mrf) trained on one road network and
//     historical speed database, stamped with a version and build metadata,
//     plus the phase methods an estimation round drives.
//   - View (view.go) is one published generation: the district plan and one
//     Model per district (a single Model when unsharded). NewView builds
//     one, and View.Estimate runs the estimation round, the only code that
//     sequences the phases.
//   - Store (store.go) is the lifecycle handle: it publishes the current
//     View through an atomic pointer, buffers crowd observations via Ingest,
//     remembers the last selected seed set, and rebuilds + hot-swaps
//     successor districts in the background without ever blocking a round.
//
// The real-time loop is SelectSeeds(K) → crowdsource the seeds' speeds →
// Estimate(slot, seedSpeeds) → network-wide speeds, where Estimate runs the
// two-step trend→speed inference (internal/mrf + internal/hlm). Every round
// resolves exactly one view version at entry and reports it in its result.
package core

import (
	"context"
	"errors"
	"math"

	"repro/internal/corr"
	"repro/internal/history"
	"repro/internal/hlm"
	"repro/internal/mrf"
	"repro/internal/obs"
	"repro/internal/roadnet"
	"repro/internal/seedsel"
)

// Core observability: the offline build stages and the online round latency
// split by phase (pre-pass magnitude, trend inference, speed regression),
// the decomposition behind the paper's real-time claim. Stage wall times
// are also traced as spans (obs.StartSpan), so /debug/trace shows the exact
// sequence of a slow round.
var (
	stageSeconds = func(stage string) *obs.Histogram {
		return obs.Default().Histogram("trendspeed_core_stage_duration_seconds",
			"Offline build stage wall time: corr_build, hlm_train, seedsel_prepare, trend_topology, seed_specialize; incremental rebuilds run corr_rescore and hlm_retrain instead of the full stages.",
			obs.DefBuckets, "stage", stage)
	}
	// estimateSeconds is HDR-bucketed (~1% relative error up to p99.9), so
	// SLO gates and loadgen comparisons read tail quantiles from it directly.
	estimateSeconds = func(phase string) *obs.HDRHistogram {
		return obs.Default().HDRHistogram("trendspeed_core_estimate_duration_hdr_seconds",
			"Estimation round wall time split by phase (pre_pass, trend, speed, total), HDR-bucketed for tail quantiles.",
			"phase", phase)
	}
	estimateRounds = obs.Default().Counter("trendspeed_core_estimate_rounds_total",
		"Completed estimation rounds.")
	estimateCanceled = obs.Default().Counter("trendspeed_estimate_canceled_total",
		"Estimation rounds abandoned because the caller's context was cancelled or its deadline expired.")
)

// timeStage runs fn as a traced, metered build stage. A context already
// cancelled at the stage boundary short-circuits before the stage's span is
// started, so cancellation never leaves a span open.
func timeStage(ctx context.Context, stage string, fn func() error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	_, sp := obs.StartSpan(ctx, stage)
	err := fn()
	stageSeconds(stage).Observe(sp.End().Seconds())
	return err
}

// timePhase runs fn as a traced, metered estimation-round phase, with the
// same cancel-before-span short-circuit as timeStage.
func timePhase(ctx context.Context, phase string, fn func() error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	_, sp := obs.StartSpan(ctx, phase)
	err := fn()
	estimateSeconds(phase).Observe(sp.End().Seconds())
	return err
}

// EstimateLatencyQuantiles reports p50/p90/p99/p99.9 of the end-to-end
// estimation round latency ("total" phase) from the HDR histogram, for
// embedding in benchmark reports comparable with cmd/loadgen output. Keys
// are "p50", "p90", "p99", "p99.9"; all zero until the first round runs.
func EstimateLatencyQuantiles() map[string]float64 {
	snap := estimateSeconds("total").Snapshot()
	return map[string]float64{
		"p50":   snap.Quantile(0.5),
		"p90":   snap.Quantile(0.9),
		"p99":   snap.Quantile(0.99),
		"p99.9": snap.Quantile(0.999),
	}
}

// Options configures model construction. The zero value is NOT valid;
// start from DefaultOptions.
type Options struct {
	Corr    corr.Config
	HLM     hlm.Config
	SeedSel seedsel.Config
	BP      mrf.BPConfig

	// Engine overrides the trend-inference engine (default: loopy BP with
	// the BP config above).
	Engine mrf.Engine
	// Selector overrides the seed-selection algorithm (default: lazy
	// greedy).
	Selector seedsel.Selector

	// SeedTrendNoise is the assumed relative-speed noise of crowdsourced
	// seed reports, used to soften seed trend evidence: a seed observed at
	// 1.01× its historical mean is weak evidence of an "up" trend, one at
	// 1.3× is near-certain. 0 means the default of 0.08.
	SeedTrendNoise float64
	// PreTrendNoise is the assumed residual noise of the magnitude
	// pre-pass when converting its estimates to trend priors. 0 means the
	// default of 0.12.
	PreTrendNoise float64
	// TrendTemper scales the MRF edge potentials toward neutrality to
	// compensate loopy BP's evidence double-counting; in (0, 1], 0 means
	// the default of 0.2.
	TrendTemper float64
	// Specialize configures seed-conditional training (hlm.SeedModel);
	// the zero value means hlm.DefaultSpecializeConfig.
	Specialize hlm.SpecializeConfig

	// Shards partitions the city into this many district models with halo
	// roads and boundary stitching (see View): each district trains, rebuilds
	// and swaps independently, and estimation runs per-district BP in
	// parallel with a bounded message exchange across boundaries. 0 or 1
	// means the single unsharded model, which is bitwise-identical to the
	// pre-sharding pipeline.
	Shards int
	// StitchRounds bounds the boundary-stitching exchanges of a sharded
	// estimation round: after each per-district trend inference, halo roads'
	// priors are refreshed from their owning district's marginals and the
	// inference re-runs warm-started. 0 means the default of 2; ignored when
	// Shards ≤ 1.
	StitchRounds int
	// HaloHops is the halo ring width of a sharded partition, in road-graph
	// hops. It must be at least Corr.MaxHops — otherwise districts would miss
	// correlation edges incident to their owned roads — and every hop beyond
	// that shrinks the boundary truncation error of per-district trend
	// inference (loopy BP's influence radius exceeds the edge radius). 0
	// means the default of 3×Corr.MaxHops; ignored when Shards ≤ 1.
	HaloHops int

	// benefitMask, when non-nil, multiplies each road's seed-selection
	// benefit weight. The sharded build zeroes halo roads so every district's
	// selection objective counts only the roads it owns — the decomposition
	// SelectShardedCtx relies on. Internal: set only by shardOptions.
	benefitMask []float64
}

// DefaultOptions returns the configuration used by the experiments.
func DefaultOptions() Options {
	return Options{
		Corr:    corr.DefaultConfig(),
		HLM:     hlm.DefaultConfig(),
		SeedSel: seedsel.DefaultConfig(),
		BP:      mrf.DefaultBPConfig(),
	}
}

// benefitWeightsFor derives the seed-selection weights for a (possibly
// sharded) build: the standard class-and-volatility weights, multiplied by
// the options' benefit mask when one is set.
func benefitWeightsFor(net *roadnet.Network, db *history.DB, opts Options) []float64 {
	w := seedsel.BenefitWeights(net, db)
	if opts.benefitMask != nil {
		for i := range w {
			w[i] *= opts.benefitMask[i]
		}
	}
	return w
}

// ErrInvalidInput marks estimation and ingestion failures caused by the
// caller's request (out-of-range roads, non-finite or non-positive speeds)
// rather than by the inference machinery. API layers use errors.Is against
// it to answer 4xx instead of 5xx.
var ErrInvalidInput = errors.New("invalid input")

// combineOdds multiplies two probabilities' odds (naive-Bayes combination of
// roughly independent evidence), keeping the result in (0, 1).
func combineOdds(a, b float64) float64 {
	const eps = 1e-6
	clip := func(p float64) float64 {
		if p < eps {
			return eps
		}
		if p > 1-eps {
			return 1 - eps
		}
		return p
	}
	a, b = clip(a), clip(b)
	odds := (a / (1 - a)) * (b / (1 - b))
	return odds / (1 + odds)
}

// trendEvidence converts an observed relative speed into the probability
// that the road's true trend is up, assuming Gaussian observation noise of
// the given standard deviation: Φ((rel − 1)/σ).
func trendEvidence(rel, sigma float64) float64 {
	if sigma <= 0 {
		if rel >= 1 {
			return 1
		}
		return 0
	}
	return 0.5 * math.Erfc(-(rel-1)/(sigma*math.Sqrt2))
}

// poolingLevels builds the default HLM pooled groupings for a network:
// road class, spatial cells at three nested scales, and city-wide. The
// nested scales let the inverse-variance combiner use the finest area that
// actually contains seeds.
func poolingLevels(net *roadnet.Network) [][]int {
	n := net.NumRoads()
	class := make([]int, n)
	city := make([]int, n)
	levels := [][]int{class, city}
	bounds := net.Bounds()
	for _, cell := range []float64{600, 1200, 2400} {
		area := make([]int, n)
		cols := int(bounds.Width()/cell) + 1
		for r := 0; r < n; r++ {
			road := net.Road(roadnet.RoadID(r))
			mid := road.Geometry.At(road.Length() / 2)
			cx := int((mid.X - bounds.Min.X) / cell)
			cy := int((mid.Y - bounds.Min.Y) / cell)
			area[r] = cy*cols + cx
		}
		levels = append(levels, area)
	}
	for r := 0; r < n; r++ {
		class[r] = int(net.Road(roadnet.RoadID(r)).Class)
	}
	return levels
}

// ExportPoolingLevels exposes the default pooling construction for
// diagnostics and experiments.
func ExportPoolingLevels(net *roadnet.Network) [][]int { return poolingLevels(net) }
