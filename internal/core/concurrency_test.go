package core

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/roadnet"
)

// TestEstimateSeedSpeedValidation tables every malformed seed speed through
// Estimate and asserts each is rejected as invalid input (so the API layer
// can map it to a 400 rather than a 500).
func TestEstimateSeedSpeedValidation(t *testing.T) {
	ctx := context.Background()
	d, est := buildEstimator(t)
	cases := []struct {
		name  string
		speed float64
	}{
		{"zero", 0},
		{"negative", -3.5},
		{"NaN", math.NaN()},
		{"+Inf", math.Inf(1)},
		{"-Inf", math.Inf(-1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := est.Estimate(ctx, d.Slot(), map[roadnet.RoadID]float64{0: tc.speed})
			if err == nil {
				t.Fatalf("seed speed %v accepted", tc.speed)
			}
			if !errors.Is(err, ErrInvalidInput) {
				t.Errorf("seed speed %v: error %v is not ErrInvalidInput", tc.speed, err)
			}
		})
	}
	// Out-of-range seed roads are the caller's fault too.
	_, err := est.Estimate(ctx, d.Slot(), map[roadnet.RoadID]float64{roadnet.RoadID(d.Net.NumRoads()): 5})
	if !errors.Is(err, ErrInvalidInput) {
		t.Errorf("out-of-range seed: error %v is not ErrInvalidInput", err)
	}
	// A valid round must not be tainted by the sentinel.
	if _, err := est.Estimate(ctx, d.Slot(), map[roadnet.RoadID]float64{0: 12}); err != nil {
		t.Fatalf("valid round failed: %v", err)
	}
}

// TestConcurrentPrepareEstimate hammers Prepare and Estimate from separate
// goroutines. Before the snapshot refactor the estimator stored the seed
// model in a plain field, so this test fails under -race on the old code
// (write in Prepare vs read in estimateRels); now every Estimate round loads
// one immutable snapshot at entry and Prepare publishes off to the side. The
// network is deliberately tiny and the iteration counts high: the racing
// window is a few instructions wide, and the incidental synchronisation in
// the metrics layer hides it from the detector at low interleaving pressure.
func TestConcurrentPrepareEstimate(t *testing.T) {
	ctx := context.Background()
	cfg := dataset.DefaultConfig()
	cfg.Net.BlocksX, cfg.Net.BlocksY = 5, 4
	cfg.HistoryDays = 4
	d, err := dataset.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	est, err := NewView(d.Net, d.DB, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	n := d.Net.NumRoads()
	setA, err := est.SelectSeeds(ctx, n/10)
	if err != nil {
		t.Fatal(err)
	}
	// A disjoint-ish second set so the two published models differ.
	setB := make([]roadnet.RoadID, len(setA))
	for i, s := range setA {
		setB[i] = roadnet.RoadID((int(s) + 7) % n)
	}
	slot, truth := d.NextTruth()
	seedSpeeds := map[roadnet.RoadID]float64{}
	for _, s := range setA {
		seedSpeeds[s] = truth[s]
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sets := [2][]roadnet.RoadID{setA, setB}
		for i := 0; i < 40; i++ {
			if err := est.Prepare(ctx, sets[i%2]); err != nil {
				t.Errorf("Prepare: %v", err)
				return
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if _, err := est.Estimate(ctx, slot, seedSpeeds); err != nil {
					t.Errorf("Estimate: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
