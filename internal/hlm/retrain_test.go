package hlm

import (
	"reflect"
	"testing"

	"repro/internal/corr"
	"repro/internal/history"
	"repro/internal/roadnet"
)

// TestRetrainMatchesTrain pins Retrain's contract against a from-scratch
// Train over the same updated history: re-fit roads match bitwise, copied
// roads match bitwise on everything except the group-level predictors,
// which stay pinned to the old model's (the documented staleness).
func TestRetrainMatchesTrain(t *testing.T) {
	d, g := buildFixtures(t)
	n := d.Net.NumRoads()
	cfg := DefaultConfig()
	cfg.Levels = [][]int{make([]int, n), make([]int, n)}
	for r := 0; r < n; r++ {
		cfg.Levels[1][r] = r % 5
	}
	old, err := Train(g, d.DB, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// A small delta: extra observations on three roads.
	b, err := history.NewBuilderFrom(d.DB)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []roadnet.RoadID{3, 17, 29} {
		slots := seriesSlots(d.DB, r)
		if len(slots) == 0 {
			t.Fatalf("road %d has no history to perturb", r)
		}
		for k := 0; k < 5; k++ {
			slot := int(slots[k%len(slots)])
			mean, ok := d.DB.Mean(r, slot)
			if !ok {
				t.Fatalf("road %d slot %d has no mean", r, slot)
			}
			if err := b.Add(r, slot, mean*1.3); err != nil {
				t.Fatal(err)
			}
		}
	}
	db2 := b.Finalize()
	di := b.Dirty()
	if di == nil || len(di.Roads) != 3 {
		t.Fatalf("dirty set = %+v, want the 3 perturbed roads", di)
	}
	g2, err := corr.Rescore(g, d.Net, db2, di.Roads, corr.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	full, err := Train(g2, db2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dirty := make([]bool, n)
	for _, r := range di.Roads {
		dirty[r] = true
	}
	inc, err := Retrain(old, g2, db2, dirty)
	if err != nil {
		t.Fatal(err)
	}

	if inc.graph != g2 {
		t.Error("retrained model does not adopt the new graph")
	}
	copied := 0
	for r := 0; r < n; r++ {
		ri, rf, ro := &inc.roads[r], &full.roads[r], &old.roads[r]
		if !reflect.DeepEqual(ri.neighbors, rf.neighbors) {
			t.Fatalf("road %d: neighbors %v != full %v", r, ri.neighbors, rf.neighbors)
		}
		if !reflect.DeepEqual(ri.pairs, rf.pairs) {
			t.Fatalf("road %d: pairwise regressions diverge from full retrain", r)
		}
		if ri.expRelUp != rf.expRelUp || ri.expRelDown != rf.expRelDown || ri.expRelAll != rf.expRelAll ||
			ri.varUp != rf.varUp || ri.varDown != rf.varDown || ri.varAll != rf.varAll {
			t.Fatalf("road %d: prior moments diverge from full retrain", r)
		}
		// Level predictors: bitwise-fresh for re-fit roads, pinned to the
		// old model's for copied roads.
		if !reflect.DeepEqual(ri.levelPairs, rf.levelPairs) {
			if !reflect.DeepEqual(ri.levelPairs, ro.levelPairs) {
				t.Fatalf("road %d: level predictors match neither full nor old", r)
			}
			copied++
		}
	}
	if copied == 0 {
		t.Error("no road reused its old training state; retrain degenerated to full")
	}
	if dirtyCopied := dirty[3] && reflect.DeepEqual(inc.roads[3], old.roads[3]); dirtyCopied {
		t.Error("dirty road 3 kept its stale training state")
	}
}

func TestRetrainValidation(t *testing.T) {
	d, g := buildFixtures(t)
	m := sharedModel(t)
	if _, err := Retrain(m, g, d.DB, make([]bool, 1)); err == nil {
		t.Error("wrong dirty-mask length accepted")
	}
	small, err := corr.NewGraph(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Retrain(m, small, d.DB, make([]bool, d.Net.NumRoads())); err == nil {
		t.Error("mismatched graph size accepted")
	}
}
