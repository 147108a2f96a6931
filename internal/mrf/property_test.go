package mrf

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/corr"
	"repro/internal/roadnet"
)

// randomSmallGraph builds a random graph over n nodes for property tests.
func randomSmallGraph(rng *rand.Rand, n int) (*corr.Graph, error) {
	var es []corr.EdgeSpec
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < 0.4 {
				es = append(es, corr.EdgeSpec{
					U: roadnet.RoadID(u), V: roadnet.RoadID(v),
					Agreement: 0.55 + rng.Float64()*0.4, N: 30,
				})
			}
		}
	}
	return corr.NewGraph(n, es)
}

// randomEquivalenceCase draws the seed-th random model of the engine
// property suites: a 4–13 node graph, priors in [0.1, 0.9], an edge temper
// between the serving configuration's 0.2 and the raw 1.0, and up to two
// evidence clamps.
func randomEquivalenceCase(t *testing.T, seed int64) (*Model, []Evidence) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := 4 + rng.Intn(10)
	g, err := randomSmallGraph(rng, n)
	if err != nil {
		t.Fatal(err)
	}
	priors := make([]float64, n)
	for i := range priors {
		priors[i] = 0.1 + 0.8*rng.Float64()
	}
	m := mustModel(t, g, priors)
	if err := m.SetEdgeTemper(0.2 + 0.8*rng.Float64()); err != nil {
		t.Fatal(err)
	}
	var ev []Evidence
	for e := rng.Intn(3); e > 0; e-- {
		ev = append(ev, Evidence{Road: roadnet.RoadID(rng.Intn(n)), Up: rng.Intn(2) == 0})
	}
	return m, ev
}

// Property: BP marginals are valid probabilities on random graphs and
// priors, with and without evidence.
func TestBPMarginalsAreProbabilities(t *testing.T) {
	bp, err := NewBP(DefaultBPConfig())
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(10)
		g, err := randomSmallGraph(rng, n)
		if err != nil {
			return false
		}
		priors := make([]float64, n)
		for i := range priors {
			priors[i] = rng.Float64()
		}
		m, err := NewModel(g, priors)
		if err != nil {
			return false
		}
		var ev []Evidence
		if n > 2 {
			ev = append(ev, Evidence{Road: roadnet.RoadID(rng.Intn(n)), Up: rng.Intn(2) == 0})
		}
		res, err := bp.Infer(context.Background(), m, ev, nil)
		if err != nil {
			return false
		}
		for _, p := range res.PUp {
			if p < 0 || p > 1 || math.IsNaN(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: the model is symmetric under global label flip — flipping every
// prior p → 1−p and the evidence bit flips every marginal, for any engine.
func TestGlobalFlipSymmetry(t *testing.T) {
	bp, err := NewBP(DefaultBPConfig())
	if err != nil {
		t.Fatal(err)
	}
	engines := []Engine{bp, ICM{}, PriorOnly{}, Exact{}}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(8)
		g, err := randomSmallGraph(rng, n)
		if err != nil {
			return false
		}
		priors := make([]float64, n)
		flipped := make([]float64, n)
		for i := range priors {
			priors[i] = 0.1 + 0.8*rng.Float64()
			flipped[i] = 1 - priors[i]
		}
		evRoad := roadnet.RoadID(rng.Intn(n))
		for _, eng := range engines {
			m1, err := NewModel(g, priors)
			if err != nil {
				return false
			}
			m2, err := NewModel(g, flipped)
			if err != nil {
				return false
			}
			r1, err := eng.Infer(context.Background(), m1, []Evidence{{Road: evRoad, Up: true}}, nil)
			if err != nil {
				return false
			}
			r2, err := eng.Infer(context.Background(), m2, []Evidence{{Road: evRoad, Up: false}}, nil)
			if err != nil {
				return false
			}
			for i := range r1.PUp {
				if math.Abs(r1.PUp[i]-(1-r2.PUp[i])) > 1e-6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: tempering toward 0 pushes BP marginals toward the priors.
func TestTemperLimitsApproachPrior(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, err := randomSmallGraph(rng, 8)
	if err != nil {
		t.Fatal(err)
	}
	priors := make([]float64, 8)
	for i := range priors {
		priors[i] = 0.2 + 0.6*rng.Float64()
	}
	bp, err := NewBP(DefaultBPConfig())
	if err != nil {
		t.Fatal(err)
	}
	ev := []Evidence{{Road: 0, Up: true}}

	model, err := NewModel(g, priors)
	if err != nil {
		t.Fatal(err)
	}
	if err := model.SetEdgeTemper(0.01); err != nil {
		t.Fatal(err)
	}
	res, err := bp.Infer(context.Background(), model, ev, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(priors); i++ {
		if math.Abs(res.PUp[i]-priors[i]) > 0.02 {
			t.Errorf("node %d: tempered marginal %v far from prior %v", i, res.PUp[i], priors[i])
		}
	}
	// Invalid temper values are rejected.
	if err := model.SetEdgeTemper(0); err == nil {
		t.Error("temper 0 accepted")
	}
	if err := model.SetEdgeTemper(1.5); err == nil {
		t.Error("temper 1.5 accepted")
	}
}
