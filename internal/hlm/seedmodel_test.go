package hlm

import (
	"math"
	"testing"

	"repro/internal/roadnet"
)

// nearestCandidates returns a provider that offers every seed (tests are
// small enough to score them all).
func allSeedsProvider(seeds []roadnet.RoadID) func(roadnet.RoadID) []roadnet.RoadID {
	return func(roadnet.RoadID) []roadnet.RoadID { return seeds }
}

// coverage returns the fraction of roads with a seed-conditional regression.
func coverage(sm *SeedModel) float64 {
	n := 0
	for i := range sm.roads {
		if sm.roads[i].k > 0 {
			n++
		}
	}
	return float64(n) / float64(len(sm.roads))
}

func TestSpecializeValidation(t *testing.T) {
	d, g := buildFixtures(t)
	m, err := Train(g, d.DB, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Specialize(d.DB, []roadnet.RoadID{0}, nil); err == nil {
		t.Error("nil candidate provider accepted")
	}
	if _, err := m.Specialize(d.DB, []roadnet.RoadID{roadnet.RoadID(m.NumRoads() + 1)},
		allSeedsProvider(nil)); err == nil {
		t.Error("out-of-range seed accepted")
	}
}

func TestSpecializeCoversRoads(t *testing.T) {
	d, g := buildFixtures(t)
	m, err := Train(g, d.DB, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var seeds []roadnet.RoadID
	for r := 0; r < m.NumRoads(); r += 8 {
		seeds = append(seeds, roadnet.RoadID(r))
	}
	sm, err := m.Specialize(d.DB, seeds, allSeedsProvider(seeds))
	if err != nil {
		t.Fatal(err)
	}
	if cov := coverage(sm); cov < 0.4 {
		t.Errorf("seed-model coverage %v too low", cov)
	}
	for _, s := range seeds {
		if !sm.SeedSet(s) {
			t.Errorf("seed %d not in seed set", s)
		}
	}
}

func TestSeedModelBeatsGenericModel(t *testing.T) {
	// Direct seed regressions should beat multi-hop propagation on MAE in
	// the realistic setting where trends are unknown (trend-free requests):
	// that is their reason to exist. (Under oracle trends the generic
	// model's trend-truncated regressions leak the answer's sign, masking
	// the propagation error.)
	d, g := buildFixtures(t)
	m, err := Train(g, d.DB, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var seeds []roadnet.RoadID
	for r := 0; r < m.NumRoads(); r += 8 {
		seeds = append(seeds, roadnet.RoadID(r))
	}
	sm, err := m.Specialize(d.DB, seeds, allSeedsProvider(seeds))
	if err != nil {
		t.Fatal(err)
	}
	var genErr, seedErr float64
	var count int
	n := d.Net.NumRoads()
	for round := 0; round < 8; round++ {
		slot, truth := d.NextTruth()
		seedRels := map[roadnet.RoadID]float64{}
		for _, s := range seeds {
			if mean, ok := d.DB.Mean(s, slot); ok {
				seedRels[s] = truth[s] / mean
			}
		}
		req := &Request{Rel: relVector(m.NumRoads(), seedRels)}
		gen, err := m.Estimate(req)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := sm.Estimate(req)
		if err != nil {
			t.Fatal(err)
		}
		genSp := SpeedsOf(d.DB, slot, gen)
		specSp := SpeedsOf(d.DB, slot, spec)
		for r := 0; r < n; r++ {
			if _, isSeed := seedRels[roadnet.RoadID(r)]; isSeed {
				continue
			}
			if genSp[r] <= 0 || specSp[r] <= 0 {
				continue
			}
			genErr += math.Abs(genSp[r] - truth[r])
			seedErr += math.Abs(specSp[r] - truth[r])
			count++
		}
	}
	genMAE, seedMAE := genErr/float64(count), seedErr/float64(count)
	t.Logf("generic MAE=%.3f seed-conditional MAE=%.3f (n=%d)", genMAE, seedMAE, count)
	// On this small fixture the two are close (the seed-conditional model's
	// decisive win shows up in the end-to-end core tests and experiments);
	// guard against regressions where it becomes clearly worse.
	if seedMAE > genMAE*1.10 {
		t.Errorf("seed-conditional MAE %.3f more than 10%% above generic %.3f", seedMAE, genMAE)
	}
}

func TestSeedModelToleratesMissingReports(t *testing.T) {
	d, g := buildFixtures(t)
	m, err := Train(g, d.DB, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var seeds []roadnet.RoadID
	for r := 0; r < m.NumRoads(); r += 8 {
		seeds = append(seeds, roadnet.RoadID(r))
	}
	sm, err := m.Specialize(d.DB, seeds, allSeedsProvider(seeds))
	if err != nil {
		t.Fatal(err)
	}
	// Only a third of the seeds report.
	seedRels := map[roadnet.RoadID]float64{}
	for i, s := range seeds {
		if i%3 == 0 {
			seedRels[s] = 1.2
		}
	}
	rel, err := sm.Estimate(&Request{Rel: relVector(m.NumRoads(), seedRels), PUp: make([]float64, m.NumRoads())})
	if err != nil {
		t.Fatal(err)
	}
	for r, v := range rel {
		if v < 0.25 || v > 1.75 || math.IsNaN(v) {
			t.Fatalf("road %d rel %v with missing reports", r, v)
		}
	}
}

func TestSeedModelPassesSeedsThrough(t *testing.T) {
	d, g := buildFixtures(t)
	m, err := Train(g, d.DB, Config{})
	if err != nil {
		t.Fatal(err)
	}
	seeds := []roadnet.RoadID{0, 16, 32}
	sm, err := m.Specialize(d.DB, seeds, allSeedsProvider(seeds))
	if err != nil {
		t.Fatal(err)
	}
	rel, err := sm.Estimate(&Request{
		Rel: relVector(m.NumRoads(), map[roadnet.RoadID]float64{0: 1.3, 16: 0.8}),
		PUp: make([]float64, m.NumRoads()),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rel[0] != 1.3 || rel[16] != 0.8 {
		t.Errorf("seed rels not passed through: %v %v", rel[0], rel[16])
	}
}
