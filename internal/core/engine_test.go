package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mrf"
	"repro/internal/obs"
	"repro/internal/roadnet"
)

func mustJacobiEngine(t *testing.T) mrf.Engine {
	t.Helper()
	eng, err := mrf.NewEngine("jacobi", mrf.DefaultBPConfig())
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// viewWithEngine builds d's view on the default options with eng as its
// trend engine (Options.Engine): a view runs one engine, so a round under
// another engine runs on a view of its own.
func viewWithEngine(t testing.TB, d *dataset.Dataset, eng mrf.Engine) *View {
	t.Helper()
	opts := DefaultOptions()
	opts.Engine = eng
	v, err := NewView(d.Net, d.DB, opts)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// engineUpdateRatioFloor is how many times the served engine's message
// updates Jacobi must spend on the 12×10-block city, where the residual
// schedule's advantage is structural rather than constant-dominated.
const engineUpdateRatioFloor = 3.0

// TestServedEngineWithinBoundK1 is the system-level gate on the served BP
// engine: on the default options, a served round must land within the
// serving bounds of the same round under Jacobi run to its fixed point
// (servedCityReference), on the 6×5-block city and on the 12×10-block one.
// There Jacobi at the served config must also need at least
// engineUpdateRatioFloor times the served engine's message updates; that
// run is not the bounds' reference, since its stop on a small per-round
// change can leave it short of the fixed point.
func TestServedEngineWithinBoundK1(t *testing.T) {
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
			reference, err := mrf.NewJacobi(servedCityReference)
			if err != nil {
				t.Fatal(err)
			}
			want, err := viewWithEngine(t, d, reference).Estimate(ctx, slot, seeds)
			if err != nil {
				t.Fatal(err)
			}
			jv := viewWithEngine(t, d, mustJacobiEngine(t))
			before := mrf.MessageUpdatesTotal()
			if _, err := jv.Estimate(ctx, slot, seeds); err != nil {
				t.Fatal(err)
			}
			jacobiUpdates := mrf.MessageUpdatesTotal() - before
			before = mrf.MessageUpdatesTotal()
			got, err := v.Estimate(ctx, slot, seeds)
			if err != nil {
				t.Fatal(err)
			}
			servedUpdates := mrf.MessageUpdatesTotal() - before

			checkServingBounds(t, got, want)
			ratio := jacobiUpdates / servedUpdates
			t.Logf("%d roads: Jacobi spends %.0f message updates, the served engine %.0f (%.4f×)",
				d.Net.NumRoads(), jacobiUpdates, servedUpdates, ratio)
			if tc.gateUpdates && !(ratio >= engineUpdateRatioFloor) {
				t.Errorf("Jacobi spends %.4f× the served engine's message updates (%.0f vs %.0f), below the %.1f× floor",
					ratio, jacobiUpdates, servedUpdates, engineUpdateRatioFloor)
			}
		})
	}
}

// TestServedEngineWithinBoundOfJacobiServedCity holds the served engine to
// the serving bounds of the Jacobi reference on the city speedserver serves
// (servedCity), on the bench's two estimate mixes: for every 7–10 am frame,
// one request of 40 random roads and one on the 40 seeds View.SelectSeeds
// picks, both with log-normal σ 0.15 reports. Every served round must
// converge: trendspeed_bp_nonconverged_total may not move while they run.
//
// The reference is Jacobi run to its fixed point (servedCityReference), on
// a view built with it and specialised to the same seeds, and it must
// converge too. At the served Tolerance, Jacobi's stop on a small
// per-round change is not closeness to the fixed point: on this city it
// stops up to 0.26 m/s short of it, so a served round within the bounds of
// the fixed point can be outside them of that stopped Jacobi round.
//
// It takes a few seconds, far longer under the race detector, so it is
// skipped there; CI runs it in a non-race step.
func TestServedEngineWithinBoundOfJacobiServedCity(t *testing.T) {
	if raceEnabled {
		t.Skip("slow under the race detector; CI runs it without -race")
	}
	ctx := context.Background()
	d, estimateFrames, _ := servedCity(t)
	v, err := NewView(d.Net, d.DB, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	v, seeds, err := v.SelectSeeds(ctx, 40)
	if err != nil {
		t.Fatal(err)
	}
	jacobi, err := mrf.NewJacobi(servedCityReference)
	if err != nil {
		t.Fatal(err)
	}
	jv, err := viewWithEngine(t, d, jacobi).WithSeeds(ctx, seeds)
	if err != nil {
		t.Fatal(err)
	}
	nonConverged := obs.Default().Counter("trendspeed_bp_nonconverged_total", "")

	rng := rand.New(rand.NewSource(13))
	var servedMisses, jacobiMisses, rounds float64
	for _, f := range estimateFrames {
		seeded := map[roadnet.RoadID]float64{}
		for _, r := range seeds {
			seeded[r] = f.truth[r] * math.Exp(0.15*rng.NormFloat64())
		}
		for _, req := range []map[roadnet.RoadID]float64{adhocRequest(rng, f.truth, 40, 0.15), seeded} {
			before := nonConverged.Value()
			got, err := v.Estimate(ctx, f.slot, req)
			if err != nil {
				t.Fatal(err)
			}
			servedMisses += nonConverged.Value() - before
			before = nonConverged.Value()
			want, err := jv.Estimate(ctx, f.slot, req)
			if err != nil {
				t.Fatal(err)
			}
			jacobiMisses += nonConverged.Value() - before
			rounds++
			checkServingBounds(t, got, want)
		}
	}
	t.Logf("%.0f rounds: the served engine left %.0f unconverged, Jacobi %.0f", rounds, servedMisses, jacobiMisses)
	if servedMisses != 0 {
		t.Errorf("the served engine left %.0f of %.0f rounds unconverged, want 0", servedMisses, rounds)
	}
	if jacobiMisses != 0 {
		t.Errorf("the Jacobi reference left %.0f of %.0f rounds unconverged, so the bounds are undefined there", jacobiMisses, rounds)
	}
}

// servedCityReference is Jacobi run to its fixed point, the reference of the
// K1 and served-city gates: the served damping, run to the Tolerance of the
// mrf package's BP-versus-Jacobi property test, three orders below the
// served one.
var servedCityReference = mrf.BPConfig{MaxIterations: 5000, Damping: 0.3, Tolerance: 1e-7}

// TestEngineOptionConstruction: Options.Engine built through the factory
// replaces the default engine for every round of the view's life, and the
// replacement takes effect: the Jacobi round differs from the served one.
func TestEngineOptionConstruction(t *testing.T) {
	ctx := context.Background()
	d := buildCity(t, 6, 5)
	slot, truth := d.NextTruth()
	seeds := spreadSeeds(d, truth, 10)

	eng, err := mrf.NewEngine("jacobi", DefaultOptions().BP)
	if err != nil {
		t.Fatal(err)
	}
	v := viewWithEngine(t, d, eng)
	first, err := v.Estimate(ctx, slot, seeds)
	if err != nil {
		t.Fatal(err)
	}
	again, err := v.Estimate(ctx, slot, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if n := differingRoads(first, again); n != 0 {
		t.Fatalf("two Jacobi rounds on one view differ on %d roads", n)
	}
	ref, err := NewView(d.Net, d.DB, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	served, err := ref.Estimate(ctx, slot, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if differingRoads(first, served) == 0 {
		t.Error("the Jacobi round equals the served round on every road: the engine option did not take effect")
	}
}
