package hlm

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/corr"
	"repro/internal/roadnet"
)

// Property: estimates stay inside the physical rel envelope for arbitrary
// seed inputs and trend assignments.
func TestEstimateEnvelopeProperty(t *testing.T) {
	d, g := buildFixtures(t)
	m, err := Train(g, d.DB, Config{})
	if err != nil {
		t.Fatal(err)
	}
	n := m.NumRoads()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		seeds := map[roadnet.RoadID]float64{}
		for i := 0; i < 1+rng.Intn(20); i++ {
			seeds[roadnet.RoadID(rng.Intn(n))] = rng.Float64() * 5 // wild inputs
		}
		pup := make([]float64, n)
		for i := range pup {
			pup[i] = rng.Float64()
		}
		rel, err := m.Estimate(&Request{Rel: relVector(m.NumRoads(), seeds), PUp: pup})
		if err != nil {
			return false
		}
		for _, v := range rel {
			if v < 0.25 || v > 1.75 || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: clampRel is idempotent and bounded.
func TestClampRelProperty(t *testing.T) {
	f := func(v float64) bool {
		c := clampRel(v)
		if c < 0.25 || c > 1.75 {
			return false
		}
		return clampRel(c) == c
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	if clampRel(math.NaN()) != 1 {
		t.Error("NaN should clamp to 1")
	}
}

// Property: training is deterministic — two Train calls on the same inputs
// produce models with identical predictions.
func TestTrainDeterministic(t *testing.T) {
	d, g := buildFixtures(t)
	m1, err := Train(g, d.DB, Config{})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Train(g, d.DB, Config{})
	if err != nil {
		t.Fatal(err)
	}
	req := &Request{
		Rel: relVector(m1.NumRoads(), map[roadnet.RoadID]float64{3: 1.3, 17: 0.6}),
		PUp: make([]float64, m1.NumRoads()),
	}
	r1, err := m1.Estimate(req)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := m2.Estimate(req)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("road %d differs across identical trainings", i)
		}
	}
}

// An empty correlation graph must still train and fall back to priors.
func TestTrainOnEmptyGraph(t *testing.T) {
	d, _ := buildFixtures(t)
	empty, err := corr.NewGraph(d.Net.NumRoads(), nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Train(empty, d.DB, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if cov := regressionCoverage(m); cov != 0 {
		t.Errorf("coverage %v on an empty graph", cov)
	}
	rel, err := m.Estimate(&Request{Rel: relVector(m.NumRoads(), map[roadnet.RoadID]float64{0: 1.4}), PUp: make([]float64, m.NumRoads())})
	if err != nil {
		t.Fatal(err)
	}
	if rel[0] != 1.4 {
		t.Error("seed not passed through on empty graph")
	}
	for r, v := range rel {
		if v < 0.25 || v > 1.75 {
			t.Fatalf("road %d rel %v", r, v)
		}
	}
}
