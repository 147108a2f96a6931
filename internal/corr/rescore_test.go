package corr

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/history"
	"repro/internal/roadnet"
)

// TestRescoreMatchesBuild: for random dirty subsets of a perturbed history,
// Rescore of the old graph over the dirty roads equals Build over the new
// history edge for edge, pre-prune lists included, under the default
// configuration and under a tighter cap that prunes more often.
func TestRescoreMatchesBuild(t *testing.T) {
	t.Parallel()
	cfg := dataset.DefaultConfig()
	cfg.Net.BlocksX, cfg.Net.BlocksY = 5, 4
	cfg.HistoryDays = 4
	d, err := dataset.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tight := DefaultConfig()
	tight.MinAgreement, tight.MaxNeighbors = 0.55, 3
	rng := rand.New(rand.NewSource(21))
	n := d.Net.NumRoads()
	for _, cc := range []Config{DefaultConfig(), tight} {
		old, err := Build(d.Net, d.DB, cc)
		if err != nil {
			t.Fatal(err)
		}
		changed := 0
		for trial := 0; trial < 6; trial++ {
			db, dirty := perturb(t, rng, d.DB, rng.Perm(n)[:1+rng.Intn(n/3)])
			got, err := Rescore(old, d.Net, db, dirty, cc)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Build(d.Net, db, cc)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("MaxNeighbors %d, trial %d (%d dirty roads)", cc.MaxNeighbors, trial, len(dirty))
			sameLists(t, label+" raw", got.raw, want.raw)
			sameLists(t, label+" edges", got.edges, want.edges)
			for r := range want.edges {
				if !slices.Equal(old.edges[r], want.edges[r]) {
					changed++
				}
			}
		}
		if changed == 0 {
			t.Errorf("MaxNeighbors %d: no perturbation changed any road's edges; the test compares nothing", cc.MaxNeighbors)
		}
	}
}

// perturb rolls db forward with observations on roads, at stored slots and
// at new ones, and returns the new history with the builder's dirty roads.
func perturb(t *testing.T, rng *rand.Rand, db *history.DB, roads []int) (*history.DB, []roadnet.RoadID) {
	t.Helper()
	b, err := history.NewBuilderFrom(db)
	if err != nil {
		t.Fatal(err)
	}
	end := int(db.Cal().SlotsPerDay()) * 4
	for _, road := range roads {
		r := roadnet.RoadID(road)
		var slots []int32
		db.EachSample(r, func(slot int32, _ float32) { slots = append(slots, slot) })
		for k := 0; k < 20 && len(slots) > 0; k++ {
			slot := int(slots[rng.Intn(len(slots))])
			speed := 5 + 10*rng.Float64()
			if mean, ok := db.Mean(r, slot); ok {
				speed = mean * (0.5 + rng.Float64())
			}
			if k%4 == 3 {
				slot = end + rng.Intn(50)
			}
			if err := b.Add(r, slot, speed); err != nil {
				t.Fatal(err)
			}
		}
	}
	next := b.Finalize()
	return next, b.Dirty()
}

// sameLists fails t at the first road whose list differs between got and
// want.
func sameLists(t *testing.T, label string, got, want [][]Edge) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d roads, want %d", label, len(got), len(want))
	}
	for r := range want {
		if !slices.Equal(got[r], want[r]) {
			t.Fatalf("%s: road %d lists %+v, Build lists %+v", label, r, got[r], want[r])
		}
	}
}
