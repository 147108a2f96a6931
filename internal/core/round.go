package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/crowd"
	"repro/internal/hlm"
	"repro/internal/mrf"
	"repro/internal/obs"
	"repro/internal/roadnet"
)

// Estimate is the result of one estimation round.
type Estimate struct {
	// Slot the estimate is for.
	Slot int
	// ModelVersion is the version of the view the round resolved at entry
	// and ran on; under a Store it identifies which published view produced
	// the estimate.
	ModelVersion uint64
	// Speeds holds per-road speed estimates in m/s; 0 means the road has no
	// history and cannot be estimated.
	Speeds []float64
	// Rels holds the relative-speed estimates behind Speeds.
	Rels []float64
	// TrendUp holds the inferred trend per road.
	TrendUp []bool
	// PUp holds the trend marginals from the graphical model.
	PUp []float64
}

// EstimateOptions tweak a single estimation round (ablations).
type EstimateOptions struct {
	// FlatHLM disables the hierarchical schedule (ablation A2).
	FlatHLM bool
	// TrendFree disables the trend step entirely: no graphical model, and
	// every regression uses its trend-agnostic variant (ablation A1 — the
	// paper's core "from trends to speeds" claim is the gap this opens).
	TrendFree bool
	// NoSeedModel disables the seed-conditional regressions, leaving only
	// the generic propagation model (ablation A2: the value of the
	// hierarchy's seed level).
	NoSeedModel bool
}

// validateSeedSpeeds rejects out-of-range roads and unusable speeds up front.
// Non-finite speeds must be rejected here: a single +Inf seed would otherwise
// poison Rels/Speeds network-wide through the regressions.
func validateSeedSpeeds(n int, seedSpeeds map[roadnet.RoadID]float64) error {
	for road, speed := range seedSpeeds {
		if int(road) < 0 || int(road) >= n {
			return fmt.Errorf("core: seed road %d out of range: %w", road, ErrInvalidInput)
		}
		if speed <= 0 || math.IsNaN(speed) || math.IsInf(speed, 0) {
			return fmt.Errorf("core: invalid seed speed %v on road %d: %w", speed, road, ErrInvalidInput)
		}
	}
	return nil
}

// Estimate runs one estimation round for one slot given crowdsourced seed
// speeds (absolute, m/s). Seeds with no historical mean are ignored — their
// relative speed is undefined. Cancellation or deadline expiry of ctx is
// observed between phases and between BP message rounds inside the trend
// phase, aborting the round with an error satisfying errors.Is against the
// context's error. Serving layers thread each request's context here so a
// disconnected client stops paying for inference it will never read.
func (v *View) Estimate(ctx context.Context, slot int, seedSpeeds map[roadnet.RoadID]float64) (*Estimate, error) {
	return v.EstimateWith(ctx, slot, seedSpeeds, EstimateOptions{})
}

// EstimateFromCrowd converts raw crowd reports into the seed-speed map and
// runs Estimate; the convenience used by the real-time loop.
func (v *View) EstimateFromCrowd(ctx context.Context, slot int, reports []crowd.Report) (*Estimate, error) {
	seeds := make(map[roadnet.RoadID]float64, len(reports))
	for _, r := range reports {
		seeds[r.Road] = r.Speed
	}
	return v.Estimate(ctx, slot, seeds)
}

// EstimateWith is Estimate with per-call overrides. The round span nests
// under any span already on ctx and is ended on every path, including
// cancellation; the round latency and the round/cancel counters are recorded
// here once per round.
func (v *View) EstimateWith(ctx context.Context, slot int, seedSpeeds map[roadnet.RoadID]float64, opts EstimateOptions) (*Estimate, error) {
	ctx, roundSpan := obs.StartSpan(ctx, "core.estimate")
	out, err := v.estimateWith(ctx, slot, seedSpeeds, opts)
	estimateSeconds("total").Observe(roundSpan.End().Seconds())
	if err == nil {
		estimateRounds.Inc()
	} else if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		estimateCanceled.Inc()
	}
	return out, err
}

// estimateWith is the uninstrumented round body and the only code that
// sequences the phases: seedRels, the trend-free pre-pass, trendPriors,
// inferTrends, fuseTrends and the speed regression, or the trend-free
// regression alone. ctx carries the round span so the per-phase spans nest
// under it. The round loads the seed-model snapshot exactly once and
// threads it through both regression passes, so a concurrent Prepare cannot
// hand one round two different models (TestViewK1Golden pins the round bit
// for bit).
func (v *View) estimateWith(ctx context.Context, slot int, seedSpeeds map[roadnet.RoadID]float64, opts EstimateOptions) (*Estimate, error) {
	if err := validateSeedSpeeds(v.net.NumRoads(), seedSpeeds); err != nil {
		return nil, err
	}
	seedModel := v.seedModel.Load()
	if opts.NoSeedModel {
		seedModel = nil
	}
	seedRels := v.seedRels(slot, seedSpeeds)
	out := &Estimate{Slot: slot, ModelVersion: v.version}
	if opts.TrendFree {
		// Ablation A1: one trend-agnostic regression, timed as the speed
		// phase.
		rels, err := v.regress(ctx, "speed", &hlm.Request{Slot: slot, SeedRels: seedRels, Flat: opts.FlatHLM}, seedModel)
		if err != nil {
			return nil, err
		}
		// No graphical model: neutral marginals, trend bits from the rels.
		out.Rels, out.PUp, out.TrendUp = rels, make([]float64, len(rels)), make([]bool, len(rels))
		for r, rel := range rels {
			out.PUp[r] = 0.5
			out.TrendUp[r] = rel >= 1
		}
	} else {
		// Step 0, the magnitude pre-pass: a trend-free regression whose
		// rels carry trend evidence no binary propagation can recover (a
		// road estimated at 0.8× its mean is almost surely trending down).
		// It is fused with the graphical posterior after inference.
		preRels, err := v.regress(ctx, "pre_pass", &hlm.Request{Slot: slot, SeedRels: seedRels}, seedModel)
		if err != nil {
			return nil, err
		}
		trends, err := v.inferTrends(ctx, v.trendPriors(slot, seedRels))
		if err != nil {
			return nil, err
		}
		out.PUp, out.TrendUp = v.fuseTrends(trends.PUp, preRels, seedRels)
		// Step 2: the speed regression, conditioned on the fused marginals.
		req := &hlm.Request{Slot: slot, SeedRels: seedRels, PUp: out.PUp, Flat: opts.FlatHLM}
		if out.Rels, err = v.regress(ctx, "speed", req, seedModel); err != nil {
			return nil, err
		}
	}
	out.Speeds = hlm.SpeedsOf(v.db, slot, out.Rels)
	return out, nil
}

// seedRels converts validated absolute seed speeds into relative speeds
// against each road's historical mean; seeds without a usable mean are
// dropped — their relative speed is undefined.
func (v *View) seedRels(slot int, seedSpeeds map[roadnet.RoadID]float64) map[roadnet.RoadID]float64 {
	seedRels := make(map[roadnet.RoadID]float64, len(seedSpeeds))
	for road, speed := range seedSpeeds {
		mean, ok := v.db.Mean(road, slot)
		if !ok || mean <= 0 {
			continue
		}
		seedRels[road] = speed / mean
	}
	return seedRels
}

// regress runs one HLM pass as the round phase named phase ("pre_pass" or
// "speed") and wraps its error with the phase.
func (v *View) regress(ctx context.Context, phase string, req *hlm.Request, seedModel *hlm.SeedModel) ([]float64, error) {
	var rels []float64
	//lint:hotpath-ok one span-bracketing thunk per phase per round (not per index); timePhase needs a closure to time and the round does O(roads) work inside it
	if err := timePhase(ctx, phase, func() (err error) {
		rels, err = v.estimateRels(req, seedModel)
		return err
	}); err != nil {
		return nil, fmt.Errorf("core: %s regression: %w", phase, err)
	}
	return rels, nil
}

// trendPriors builds the MRF node priors. They carry only *local* evidence —
// the historical trend prior, and for seed roads the soft probability that
// the trend is up given the noisy crowd observation (never a hard clamp: a
// report at 1.01× the mean must not drag its whole neighbourhood to "up").
// The spatially-correlated pre-pass evidence is fused after inference;
// feeding it into the node priors would make BP double-count it around every
// loop.
func (v *View) trendPriors(slot int, seedRels map[roadnet.RoadID]float64) []float64 {
	n := v.net.NumRoads()
	priors := make([]float64, n)
	for r := 0; r < n; r++ {
		priors[r] = v.db.PUp(roadnet.RoadID(r), slot)
	}
	for road, rel := range seedRels {
		priors[road] = trendEvidence(rel, seedTrendNoise)
	}
	return priors
}

// inferTrends is step 1: trend inference over the MRF with the given node
// priors, its only input, on the view's engine.
func (v *View) inferTrends(ctx context.Context, priors []float64) (*mrf.Result, error) {
	var trends *mrf.Result
	//lint:hotpath-ok one span-bracketing thunk per phase per round (not per index); timePhase needs a closure to time and the round does O(roads) work inside it
	if err := timePhase(ctx, "trend", func() error {
		model, err := mrf.NewModel(v.trendTopo, priors)
		if err != nil {
			return fmt.Errorf("building trend model: %w", err)
		}
		trends, err = v.engine.Infer(ctx, model, nil, nil)
		return err
	}); err != nil {
		return nil, fmt.Errorf("core: trend inference: %w", err)
	}
	return trends, nil
}

// fuseTrends fuses the graphical posterior with the magnitude evidence in
// log-odds space: the two views — binary propagation and calibrated
// magnitude interpolation — fail in different places. Seed roads keep their
// own observation's evidence.
func (v *View) fuseTrends(trendPUp, preRels []float64, seedRels map[roadnet.RoadID]float64) (pUp []float64, trendUp []bool) {
	n := len(trendPUp)
	pUp = make([]float64, n)
	trendUp = make([]bool, n)
	v.fuseTrendsInto(pUp, trendUp, trendPUp, preRels, seedRels)
	return pUp, trendUp
}

// fuseTrendsInto is the allocation-free core of fuseTrends: it writes the
// fused posterior into caller-provided slices (len(trendPUp) each), so the
// per-road fusion loop itself allocates nothing (TestFuseTrendsAllocs).
func (v *View) fuseTrendsInto(pUp []float64, trendUp []bool, trendPUp, preRels []float64, seedRels map[roadnet.RoadID]float64) {
	for r := range trendPUp {
		pUp[r] = combineOdds(trendPUp[r], trendEvidence(preRels[r], preTrendNoise))
		trendUp[r] = pUp[r] >= 0.5
	}
	for road, rel := range seedRels {
		p := trendEvidence(rel, seedTrendNoise)
		pUp[road] = p
		trendUp[road] = p >= 0.5
	}
}

// estimateRels routes an HLM request through the given seed-conditional
// snapshot when the request's seeds overlap it; otherwise (or when the
// snapshot is nil) the generic propagation model runs. The snapshot is the
// one the round loaded at entry, never re-read, so both regression passes of
// a round agree on the model.
func (v *View) estimateRels(req *hlm.Request, seedModel *hlm.SeedModel) ([]float64, error) {
	if seedModel != nil {
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
	return v.hlm.Estimate(req)
}
