package core

import (
	"context"
	"encoding/json"
	"os"
	"testing"

	"repro/internal/dataset"
	"repro/internal/roadnet"
	"repro/internal/seedsel"
)

// buildViewDataset makes the small city the golden and engine tests share.
func buildViewDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	cfg := dataset.DefaultConfig()
	cfg.Net.BlocksX, cfg.Net.BlocksY = 6, 5
	cfg.HistoryDays = 4
	d, err := dataset.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// spreadSeeds picks every strideth road with its true speed, so the seeds
// cover the whole bounding box.
func spreadSeeds(d *dataset.Dataset, truth []float64, stride int) map[roadnet.RoadID]float64 {
	seeds := map[roadnet.RoadID]float64{}
	for r := 0; r < d.Net.NumRoads(); r += stride {
		seeds[roadnet.RoadID(r)] = truth[roadnet.RoadID(r)]
	}
	return seeds
}

// goldenRound is one recorded estimation round of testdata/k1_golden.json.
type goldenRound struct {
	Speeds  []float64 `json:"speeds"`
	Rels    []float64 `json:"rels"`
	PUp     []float64 `json:"p_up"`
	TrendUp []bool    `json:"trend_up"`
}

// TestViewK1Golden pins the estimation round bit for bit: a view must
// reproduce the recorded round on buildViewDataset's first truth slot with
// spreadSeeds(…, 10), for the default and the trend-free round. Every float
// is compared exactly: a change to the round's arithmetic must re-record the
// fixture on purpose.
func TestViewK1Golden(t *testing.T) {
	raw, err := os.ReadFile("testdata/k1_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden struct {
		Slot      int         `json:"slot"`
		Seeds     int         `json:"seeds"`
		Default   goldenRound `json:"default"`
		TrendFree goldenRound `json:"trend_free"`
	}
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	d := buildViewDataset(t)
	slot, truth := d.NextTruth()
	seeds := spreadSeeds(d, truth, 10)
	if slot != golden.Slot || len(seeds) != golden.Seeds {
		t.Fatalf("dataset drifted from the fixture: slot %d with %d seeds, recorded %d with %d", slot, len(seeds), golden.Slot, golden.Seeds)
	}
	v, err := NewView(d.Net, d.DB, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		opts EstimateOptions
		want goldenRound
	}{
		{"default", EstimateOptions{}, golden.Default},
		{"trend-free", EstimateOptions{TrendFree: true}, golden.TrendFree},
	} {
		got, err := v.EstimateWith(context.Background(), slot, seeds, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Speeds) != len(tc.want.Speeds) {
			t.Fatalf("%s: %d roads, fixture has %d", tc.name, len(got.Speeds), len(tc.want.Speeds))
		}
		for r := range tc.want.Speeds {
			if got.Speeds[r] != tc.want.Speeds[r] || got.Rels[r] != tc.want.Rels[r] ||
				got.PUp[r] != tc.want.PUp[r] || got.TrendUp[r] != tc.want.TrendUp[r] {
				t.Fatalf("%s road %d diverges from the fixture: speed %v vs %v, rel %v vs %v, pUp %v vs %v, up %v vs %v",
					tc.name, r, got.Speeds[r], tc.want.Speeds[r], got.Rels[r], tc.want.Rels[r],
					got.PUp[r], tc.want.PUp[r], got.TrendUp[r], tc.want.TrendUp[r])
			}
		}
	}
}

// TestViewSeedSelectionEqual: the view's SelectSeeds runs the configured
// selector (lazy greedy by default) on its own problem, so the picks match
// that selector's exactly.
func TestViewSeedSelectionEqual(t *testing.T) {
	ctx := context.Background()
	d := buildViewDataset(t)
	v, err := NewView(d.Net, d.DB, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	k := d.Net.NumRoads() / 10
	want, err := seedsel.Lazy{}.Select(v.Problem(), k)
	if err != nil {
		t.Fatal(err)
	}
	got, err := v.SelectSeeds(ctx, k)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d seeds, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("seed %d = %d, want %d", i, got[i], want[i])
		}
	}
}
