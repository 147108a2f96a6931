// Package core assembles the paper's complete system, called TrendSpeed in
// this reproduction, as a versioned model lifecycle:
//
//   - View (view.go) is one immutable, versioned training artifact: the
//     trend-correlation graph (internal/corr), the hierarchical linear model
//     (internal/hlm), the seed-selection problem (internal/seedsel) and the
//     trend topology (internal/mrf) trained on one road network and
//     historical speed database, stamped with a version and build metadata.
//     NewView builds one, and View.Estimate (round.go) runs the estimation
//     round, the only code that sequences the phases.
//   - Store (store.go) is the lifecycle handle: it publishes the current
//     View through an atomic pointer, buffers crowd observations via Ingest,
//     remembers the last selected seed set, and rebuilds + hot-swaps a
//     successor View in the background without ever blocking a round.
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
	"repro/internal/mrf"
	"repro/internal/obs"
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
			"Offline build stage wall time: corr_build, hlm_train, seedsel_prepare, trend_topology, seed_specialize; incremental rebuilds run hlm_retrain instead of hlm_train.",
			obs.DefBuckets, "stage", stage)
	}
	// estimateSeconds is HDR-bucketed (~1% relative error up to p99.9), so
	// tail quantiles read from it directly.
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

// Options configures model construction. The zero value is NOT valid;
// start from DefaultOptions.
type Options struct {
	Corr corr.Config
	BP   mrf.BPConfig

	// Engine overrides the trend-inference engine (default: loopy BP with
	// the BP config above).
	Engine mrf.Engine
	// Selector overrides the seed-selection algorithm (default: lazy
	// greedy). It must be cancellable, so a request that goes away stops
	// the selection it started.
	Selector seedsel.ContextSelector
}

// The estimation round's trend-evidence constants.
const (
	// seedTrendNoise is the assumed relative-speed noise of crowdsourced
	// seed reports, used to soften seed trend evidence: a seed observed at
	// 1.01× its historical mean is weak evidence of an "up" trend, one at
	// 1.3× is near-certain.
	seedTrendNoise = 0.08
	// preTrendNoise is the assumed residual noise of the magnitude pre-pass
	// when converting its estimates to trend priors.
	preTrendNoise = 0.12
	// trendTemper scales the MRF edge potentials toward neutrality to
	// compensate loopy BP's evidence double-counting; each view's trend
	// topology applies it once.
	trendTemper = 0.2
)

// DefaultOptions returns the configuration used by the experiments.
func DefaultOptions() Options {
	return Options{
		Corr: corr.DefaultConfig(),
		BP:   mrf.DefaultBPConfig(),
	}
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
