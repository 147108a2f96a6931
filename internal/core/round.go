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
// runs Estimate; the convenience used by the real-time loop. Two reports for
// one road are refused as invalid input: collapsing them would let a
// malformed crowd batch pass for a smaller seed set.
func (v *View) EstimateFromCrowd(ctx context.Context, slot int, reports []crowd.Report) (*Estimate, error) {
	seeds := make(map[roadnet.RoadID]float64, len(reports))
	for _, r := range reports {
		if _, dup := seeds[r.Road]; dup {
			return nil, fmt.Errorf("core: duplicate report for road %d: %w", r.Road, ErrInvalidInput)
		}
		seeds[r.Road] = r.Speed
	}
	return v.Estimate(ctx, slot, seeds)
}

// EstimateWith is Estimate with per-call overrides. The round span nests
// under any span already on ctx and ends on every path, including
// cancellation and a panic; the round latency and the round/cancel counters
// are recorded here once per round that returns.
func (v *View) EstimateWith(ctx context.Context, slot int, seedSpeeds map[roadnet.RoadID]float64, opts EstimateOptions) (*Estimate, error) {
	var out *Estimate
	//lint:hotpath-ok one span-bracketing thunk per round (not per index); obs.Time needs a closure to time and the round does O(roads) work inside it
	d, err := obs.Time(ctx, "core.estimate", func(ctx context.Context) (err error) {
		out, err = v.estimateWith(ctx, slot, seedSpeeds, opts)
		return err
	})
	totalSeconds.Observe(d.Seconds())
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
// under it. TestViewK1Golden pins the round bit for bit.
func (v *View) estimateWith(ctx context.Context, slot int, seedSpeeds map[roadnet.RoadID]float64, opts EstimateOptions) (*Estimate, error) {
	seedRels, err := v.seedRels(slot, seedSpeeds)
	if err != nil {
		return nil, err
	}
	out := &Estimate{Slot: slot, ModelVersion: v.version}
	if opts.TrendFree {
		// Ablation A1: one trend-agnostic regression, timed as the speed
		// phase.
		rels, err := v.regress(ctx, speedPhase, &hlm.Request{Rel: seedRels, Flat: opts.FlatHLM})
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
		preRels, err := v.regress(ctx, prePassPhase, &hlm.Request{Rel: seedRels})
		if err != nil {
			return nil, err
		}
		trends, err := v.inferTrends(ctx, v.trendPriors(slot, seedRels))
		if err != nil {
			return nil, err
		}
		out.PUp, out.TrendUp = v.fuseTrends(trends.PUp, preRels, seedRels)
		// Step 2: the speed regression, conditioned on the fused marginals.
		req := &hlm.Request{Rel: seedRels, PUp: out.PUp, Flat: opts.FlatHLM}
		if out.Rels, err = v.regress(ctx, speedPhase, req); err != nil {
			return nil, err
		}
	}
	out.Speeds = hlm.SpeedsOf(v.db, slot, out.Rels)
	return out, nil
}

// seedRels validates the absolute seed speeds and returns every road's
// relative speed against its historical mean, the round's one report
// vector: NaN on a road with no report, and on a seed without a usable mean,
// whose relative speed is undefined. Out-of-range roads and unusable speeds
// are refused as ErrInvalidInput: a single +Inf seed would otherwise poison
// Rels/Speeds network-wide through the regressions.
func (v *View) seedRels(slot int, seedSpeeds map[roadnet.RoadID]float64) ([]float64, error) {
	n := v.net.NumRoads()
	rels := make([]float64, n)
	for r := range rels {
		rels[r] = math.NaN()
	}
	for road, speed := range seedSpeeds {
		if int(road) < 0 || int(road) >= n {
			return nil, fmt.Errorf("core: seed road %d out of range: %w", road, ErrInvalidInput)
		}
		if speed <= 0 || math.IsNaN(speed) || math.IsInf(speed, 0) {
			return nil, fmt.Errorf("core: invalid seed speed %v on road %d: %w", speed, road, ErrInvalidInput)
		}
		if mean, ok := v.db.Mean(road, slot); ok && mean > 0 {
			rels[road] = speed / mean
		}
	}
	return rels, nil
}

// regress runs one HLM pass as the round phase phase (prePassPhase or
// speedPhase) and wraps its error with the phase's name.
func (v *View) regress(ctx context.Context, phase roundPhase, req *hlm.Request) ([]float64, error) {
	var rels []float64
	//lint:hotpath-ok one span-bracketing thunk per phase per round (not per index); timePhase needs a closure to time and the round does O(roads) work inside it
	if err := timePhase(ctx, phase, func(context.Context) (err error) {
		rels, err = v.estimateRels(req)
		return err
	}); err != nil {
		return nil, fmt.Errorf("core: %s regression: %w", phase.name, err)
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
func (v *View) trendPriors(slot int, seedRels []float64) []float64 {
	priors := make([]float64, len(seedRels))
	for r, rel := range seedRels {
		if math.IsNaN(rel) {
			priors[r] = v.db.PUp(roadnet.RoadID(r), slot)
		} else {
			priors[r] = trendEvidence(rel, seedTrendNoise)
		}
	}
	return priors
}

// inferTrends is step 1: trend inference over the MRF with the given node
// priors, its only input, on the view's engine.
func (v *View) inferTrends(ctx context.Context, priors []float64) (*mrf.Result, error) {
	var trends *mrf.Result
	//lint:hotpath-ok one span-bracketing thunk per phase per round (not per index); timePhase needs a closure to time and the round does O(roads) work inside it
	if err := timePhase(ctx, trendPhase, func(ctx context.Context) error {
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
func (v *View) fuseTrends(trendPUp, preRels, seedRels []float64) (pUp []float64, trendUp []bool) {
	n := len(trendPUp)
	pUp = make([]float64, n)
	trendUp = make([]bool, n)
	v.fuseTrendsInto(pUp, trendUp, trendPUp, preRels, seedRels)
	return pUp, trendUp
}

// fuseTrendsInto is the allocation-free core of fuseTrends: it writes the
// fused posterior into caller-provided slices (len(trendPUp) each), so the
// per-road fusion loop itself allocates nothing (TestFuseTrendsAllocs).
func (v *View) fuseTrendsInto(pUp []float64, trendUp []bool, trendPUp, preRels, seedRels []float64) {
	for r := range trendPUp {
		if rel := seedRels[r]; math.IsNaN(rel) {
			pUp[r] = combineOdds(trendPUp[r], trendEvidence(preRels[r], preTrendNoise))
		} else {
			pUp[r] = trendEvidence(rel, seedTrendNoise)
		}
		trendUp[r] = pUp[r] >= 0.5
	}
}

// estimateRels routes an HLM request through the view's seed-conditional
// model when at least half the request's reports, and at least one, fall on
// its seed set; otherwise (or on an unspecialised view) the generic
// propagation model runs.
func (v *View) estimateRels(req *hlm.Request) ([]float64, error) {
	if v.seedModel != nil {
		reported, overlap := 0, 0
		for r, rel := range req.Rel {
			if math.IsNaN(rel) {
				continue
			}
			reported++
			if v.seedModel.SeedSet(roadnet.RoadID(r)) {
				overlap++
			}
		}
		if overlap*2 >= reported && overlap > 0 {
			return v.seedModel.Estimate(req)
		}
	}
	return v.hlm.Estimate(req)
}
