package speedest

import (
	"context"
	"math"
	"testing"
)

// TestFacadeEndToEnd exercises the whole public API surface: dataset
// assembly, training, seed selection, estimation and scoring.
func TestFacadeEndToEnd(t *testing.T) {
	ctx := context.Background()
	cfg := DefaultDatasetConfig()
	cfg.Net.BlocksX, cfg.Net.BlocksY = 7, 6
	cfg.HistoryDays = 6
	d, err := BuildDataset(cfg)
	if err != nil {
		t.Fatal(err)
	}
	est, err := New(d.Net, d.DB, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	k := d.Net.NumRoads() / 10
	seeds, err := est.SelectSeeds(ctx, k)
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) != k {
		t.Fatalf("got %d seeds, want %d", len(seeds), k)
	}

	var oursSum, staticSum float64
	var n int
	for round := 0; round < 4; round++ {
		slot, truth := d.NextTruth()
		seedSpeeds := map[RoadID]float64{}
		for _, s := range seeds {
			seedSpeeds[s] = truth[s]
		}
		res, err := est.Estimate(ctx, slot, seedSpeeds)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < d.Net.NumRoads(); r++ {
			if _, isSeed := seedSpeeds[RoadID(r)]; isSeed || res.Speeds[r] <= 0 {
				continue
			}
			mean, ok := d.DB.Mean(RoadID(r), slot)
			if !ok {
				continue
			}
			oursSum += math.Abs(res.Speeds[r] - truth[r])
			staticSum += math.Abs(mean - truth[r])
			n++
		}
	}
	if n == 0 {
		t.Fatal("nothing scored")
	}
	ours, static := oursSum/float64(n), staticSum/float64(n)
	t.Logf("facade end-to-end: ours MAE=%.3f, static MAE=%.3f", ours, static)
	if ours >= static {
		t.Errorf("estimator MAE %.3f not below static %.3f", ours, static)
	}
}

func TestDatasetConfigsExposed(t *testing.T) {
	for name, cfg := range map[string]DatasetConfig{"B": BCityDataset(), "T": TCityDataset()} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s-City config invalid: %v", name, err)
		}
	}
}
