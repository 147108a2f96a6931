package core

import (
	"context"
	"testing"

	"repro/internal/mrf"
)

func mustFastBPEngine(t *testing.T) mrf.Engine {
	t.Helper()
	eng, err := mrf.NewEngine("fastbp", mrf.DefaultBPConfig())
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestFastBPEngineWithinBoundK1 is the system-level FastBP acceptance gate:
// on the default options, a round inferred with the residual-scheduled
// engine must land within the serving bounds — 0.05 m/s of speed and 0.01 of
// trend marginal — of the Jacobi reference round.
func TestFastBPEngineWithinBoundK1(t *testing.T) {
	ctx := context.Background()
	d := buildViewDataset(t)
	slot, truth := d.NextTruth()
	seeds := spreadSeeds(d, truth, 10)

	v, err := NewView(d.Net, d.DB, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want, err := v.Estimate(ctx, slot, seeds)
	if err != nil {
		t.Fatal(err)
	}
	got, err := v.EstimateWith(ctx, slot, seeds, EstimateOptions{Engine: mustFastBPEngine(t)})
	if err != nil {
		t.Fatal(err)
	}

	var maxSpeed, maxPUp float64
	for r := range want.Speeds {
		if diff := absDiff(got.Speeds[r], want.Speeds[r]); diff > maxSpeed {
			maxSpeed = diff
		}
		if diff := absDiff(got.PUp[r], want.PUp[r]); diff > maxPUp {
			maxPUp = diff
		}
	}
	t.Logf("K=1 fastbp vs bp: max |Δspeed| = %.3g m/s, max |ΔPUp| = %.3g", maxSpeed, maxPUp)
	if maxSpeed > 0.05 {
		t.Errorf("max speed divergence %.4g m/s exceeds the 0.05 engine bound", maxSpeed)
	}
	if maxPUp > 0.01 {
		t.Errorf("max trend-marginal divergence %.4g exceeds the 0.01 engine bound", maxPUp)
	}
}

// TestEngineOptionConstruction: Options.Engine built through the factory
// replaces the default engine for every round of the model's life.
func TestEngineOptionConstruction(t *testing.T) {
	ctx := context.Background()
	d := buildViewDataset(t)
	slot, truth := d.NextTruth()
	seeds := spreadSeeds(d, truth, 10)

	opts := DefaultOptions()
	eng, err := mrf.NewEngine("fastbp", opts.BP)
	if err != nil {
		t.Fatal(err)
	}
	opts.Engine = eng
	v, err := NewView(d.Net, d.DB, opts)
	if err != nil {
		t.Fatal(err)
	}
	viaOpts, err := v.Estimate(ctx, slot, seeds)
	if err != nil {
		t.Fatal(err)
	}

	ref, err := NewView(d.Net, d.DB, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	viaOverride, err := ref.EstimateWith(ctx, slot, seeds, EstimateOptions{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	for r := range viaOpts.PUp {
		if viaOpts.PUp[r] != viaOverride.PUp[r] {
			t.Fatalf("road %d: Options.Engine marginal %v != per-call override %v (same engine, same inputs)", r, viaOpts.PUp[r], viaOverride.PUp[r])
		}
	}
}
