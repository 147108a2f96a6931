package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/mrf"
	"repro/internal/roadnet"
)

// engineBenchRecord is the -json report of one Jacobi-vs-FastBP comparison on
// the serving estimate path: speedserver's default options run once with
// each engine at two network sizes. Estimate divergence is gated at every
// size with the serving equivalence bounds; the effective message-update
// ratio — full Jacobi sweeps versus FastBP's residual schedule for the same
// fixed point — is gated at the larger size, where the schedule's advantage
// is structural rather than constant-dominated. Wall-clock ratios are
// recorded, not gated, so CI stays immune to shared-runner timing noise.
type engineBenchRecord struct {
	Engines          []string            `json:"engines"`
	SpeedBound       float64             `json:"speed_equivalence_bound_ms"`
	TrendBound       float64             `json:"trend_equivalence_bound_pup"`
	UpdateRatioFloor float64             `json:"update_ratio_floor"`
	Scales           []engineScaleRecord `json:"scales"`
}

// engineScaleRecord is one network size's engine comparison.
type engineScaleRecord struct {
	NumRoads int `json:"num_roads"`
	Rounds   int `json:"rounds"`
	// *Seconds is the per-round estimate latency (minimum over the measured
	// rounds, the usual bench convention); *Updates is the effective
	// trend-message updates one estimate round costs (mean over the measured
	// rounds — the schedule is deterministic, so the rounds agree).
	JacobiSeconds float64 `json:"jacobi_estimate_seconds_per_round"`
	FastBPSeconds float64 `json:"fastbp_estimate_seconds_per_round"`
	JacobiUpdates float64 `json:"jacobi_message_updates_per_round"`
	FastBPUpdates float64 `json:"fastbp_message_updates_per_round"`
	// UpdateRatio is JacobiUpdates/FastBPUpdates: how many times fewer
	// message writes the residual schedule needs for the same marginals.
	UpdateRatio    float64 `json:"update_ratio"`
	WallClockRatio float64 `json:"wall_clock_ratio"`
	// Divergence of the FastBP estimates from the Jacobi estimates on the
	// same seeds and truth.
	MaxSpeedDivergence float64 `json:"max_speed_divergence_ms"`
	MaxTrendDivergence float64 `json:"max_trend_divergence_pup"`
}

// Engine-swap equivalence bounds — the same values the core property test
// TestFastBPEngineWithinBoundK1 pins: schedule divergence on top of the BP
// convergence tolerance.
const (
	engineSpeedBound = 0.05 // m/s
	engineTrendBound = 0.01 // P(up)
	// engineUpdateRatioFloor is the acceptance floor for the residual
	// schedule on the serving path at the larger network size.
	engineUpdateRatioFloor = 3.0
)

// runEngineBench measures the Jacobi reference against the
// residual-scheduled FastBP engine on the serving estimate path at a base
// network size and again at ~4× the road count (both grid dimensions
// doubled), on the options speedserver serves: what `speedserver -engine
// fastbp` would run against the Jacobi default.
func runEngineBench(fast bool) *engineBenchRecord {
	base := dataset.DefaultConfig()
	base.Net.BlocksX, base.Net.BlocksY = 10, 8
	base.HistoryDays = 7
	rounds := 3
	if fast {
		base.Net.BlocksX, base.Net.BlocksY = 6, 5
		base.HistoryDays = 4
		rounds = 2
	}
	big := base
	big.Net.BlocksX *= 2
	big.Net.BlocksY *= 2

	rec := &engineBenchRecord{
		Engines:          []string{"bp", "fastbp"},
		SpeedBound:       engineSpeedBound,
		TrendBound:       engineTrendBound,
		UpdateRatioFloor: engineUpdateRatioFloor,
	}
	for _, cfg := range []dataset.Config{base, big} {
		rec.Scales = append(rec.Scales, runEngineScale(cfg, rounds))
	}

	// Equivalence gate at every size; update-ratio gate at the largest.
	for i, sc := range rec.Scales {
		if sc.MaxSpeedDivergence > engineSpeedBound || sc.MaxTrendDivergence > engineTrendBound {
			log.Fatalf("engine bench: fastbp estimates diverge from bp beyond the equivalence bound at %d roads: |Δspeed| %.4g m/s (bound %g), |ΔPUp| %.4g (bound %g)",
				sc.NumRoads, sc.MaxSpeedDivergence, engineSpeedBound, sc.MaxTrendDivergence, engineTrendBound)
		}
		if i == len(rec.Scales)-1 && sc.UpdateRatio < engineUpdateRatioFloor {
			log.Fatalf("engine bench: fastbp update ratio %.2f× at %d roads is below the %.0f× acceptance floor (jacobi %.0f vs fastbp %.0f updates/round)",
				sc.UpdateRatio, sc.NumRoads, engineUpdateRatioFloor, sc.JacobiUpdates, sc.FastBPUpdates)
		}
	}

	fmt.Printf("\n== engine bench (served options) ==\n")
	for _, sc := range rec.Scales {
		fmt.Printf("  %5d roads: bp %.4fs/round (%.0f msg updates) vs fastbp %.4fs/round (%.0f) — %.1f× fewer updates, %.1f× wall clock, |Δspeed| ≤ %.3g m/s, |ΔPUp| ≤ %.3g\n",
			sc.NumRoads, sc.JacobiSeconds, sc.JacobiUpdates, sc.FastBPSeconds, sc.FastBPUpdates,
			sc.UpdateRatio, sc.WallClockRatio, sc.MaxSpeedDivergence, sc.MaxTrendDivergence)
	}
	return rec
}

// runEngineScale compares the two engines on one dataset. Both deployments
// estimate the same slot from the same seed reports, so the divergence
// columns isolate the engine swap.
func runEngineScale(cfg dataset.Config, rounds int) engineScaleRecord {
	ctx := context.Background()
	log.Printf("engine bench: building %d×%d-block dataset...", cfg.Net.BlocksX, cfg.Net.BlocksY)
	d, err := dataset.Build(cfg)
	if err != nil {
		log.Fatal(err)
	}
	slot, truth := d.NextTruth()
	seedSpeeds := map[roadnet.RoadID]float64{}
	for r := 0; r < d.Net.NumRoads(); r += 10 {
		seedSpeeds[roadnet.RoadID(r)] = truth[roadnet.RoadID(r)]
	}

	opts := core.DefaultOptions()
	sc := engineScaleRecord{NumRoads: d.Net.NumRoads(), Rounds: rounds}

	measure := func(eng mrf.Engine) (secs, updates float64, res *core.Estimate) {
		o := opts
		o.Engine = eng
		v, err := core.NewView(d.Net, d.DB, o)
		if err != nil {
			log.Fatalf("engine bench: building view: %v", err)
		}
		// Warm-up round first: buffer pools fill, so the measured rounds see
		// the steady state the server serves from.
		if _, err := v.Estimate(ctx, slot, seedSpeeds); err != nil {
			log.Fatalf("engine bench: estimate: %v", err)
		}
		before := mrf.MessageUpdatesTotal()
		for i := 0; i < rounds; i++ {
			t0 := time.Now()
			if res, err = v.Estimate(ctx, slot, seedSpeeds); err != nil {
				log.Fatalf("engine bench: estimate: %v", err)
			}
			if e := time.Since(t0).Seconds(); secs == 0 || e < secs {
				secs = e
			}
		}
		updates = (mrf.MessageUpdatesTotal() - before) / float64(rounds)
		return secs, updates, res
	}

	var jacRes, fastRes *core.Estimate
	sc.JacobiSeconds, sc.JacobiUpdates, jacRes = measure(nil) // nil = core's Jacobi default
	fastEng, err := mrf.NewEngine("fastbp", opts.BP)
	if err != nil {
		log.Fatal(err)
	}
	sc.FastBPSeconds, sc.FastBPUpdates, fastRes = measure(fastEng)

	for r := range jacRes.Speeds {
		if diff := abs(fastRes.Speeds[r] - jacRes.Speeds[r]); diff > sc.MaxSpeedDivergence {
			sc.MaxSpeedDivergence = diff
		}
		if diff := abs(fastRes.PUp[r] - jacRes.PUp[r]); diff > sc.MaxTrendDivergence {
			sc.MaxTrendDivergence = diff
		}
	}
	if sc.FastBPUpdates > 0 {
		sc.UpdateRatio = sc.JacobiUpdates / sc.FastBPUpdates
	}
	if sc.FastBPSeconds > 0 {
		sc.WallClockRatio = sc.JacobiSeconds / sc.FastBPSeconds
	}
	return sc
}
