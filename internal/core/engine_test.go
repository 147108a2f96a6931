package core

import (
	"context"
	"fmt"
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

// engineUpdateRatioFloor is how many times FastBP's message updates Jacobi
// must spend on the 12×10-block city, where the residual schedule's advantage
// is structural rather than constant-dominated.
const engineUpdateRatioFloor = 3.0

// TestFastBPEngineWithinBoundK1 is the system-level FastBP acceptance gate:
// on the default options, a round inferred with the residual-scheduled
// engine must land within the serving bounds of the Jacobi reference round,
// on the 6×5-block city and on the 12×10-block one, where Jacobi must also
// need at least engineUpdateRatioFloor times FastBP's message updates.
func TestFastBPEngineWithinBoundK1(t *testing.T) {
	for _, tc := range []struct {
		blocksX, blocksY int
		gateUpdates      bool
	}{
		{6, 5, false},
		{12, 10, true},
	} {
		t.Run(fmt.Sprintf("%dx%d", tc.blocksX, tc.blocksY), func(t *testing.T) {
			ctx := context.Background()
			d := buildCity(t, tc.blocksX, tc.blocksY)
			slot, truth := d.NextTruth()
			seeds := spreadSeeds(d, truth, 10)

			v, err := NewView(d.Net, d.DB, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			before := mrf.MessageUpdatesTotal()
			want, err := v.Estimate(ctx, slot, seeds)
			if err != nil {
				t.Fatal(err)
			}
			jacobiUpdates := mrf.MessageUpdatesTotal() - before
			before = mrf.MessageUpdatesTotal()
			got, err := v.EstimateWith(ctx, slot, seeds, EstimateOptions{Engine: mustFastBPEngine(t)})
			if err != nil {
				t.Fatal(err)
			}
			fastUpdates := mrf.MessageUpdatesTotal() - before

			checkServingBounds(t, got, want)
			ratio := jacobiUpdates / fastUpdates
			t.Logf("%d roads: Jacobi spends %.0f message updates, FastBP %.0f (%.4f×)",
				d.Net.NumRoads(), jacobiUpdates, fastUpdates, ratio)
			if tc.gateUpdates && !(ratio >= engineUpdateRatioFloor) {
				t.Errorf("Jacobi spends %.4f× FastBP's message updates (%.0f vs %.0f), below the %.1f× floor",
					ratio, jacobiUpdates, fastUpdates, engineUpdateRatioFloor)
			}
		})
	}
}

// TestEngineOptionConstruction: Options.Engine built through the factory
// replaces the default engine for every round of the model's life.
func TestEngineOptionConstruction(t *testing.T) {
	ctx := context.Background()
	d := buildCity(t, 6, 5)
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
