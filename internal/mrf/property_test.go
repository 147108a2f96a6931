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
// property suites: a 4–13 node graph, priors in [0.1, 0.9] and an edge
// temper between the serving configuration's 0.2 and the raw 1.0. It
// returns the temper beside the model.
func randomEquivalenceCase(t *testing.T, seed int64) (*Model, float64) {
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
	temper := 0.2 + 0.8*rng.Float64()
	return mustTemperedModel(t, g, temper, priors), temper
}

// Property: both BP schedules' marginals are valid probabilities on random
// graphs and priors, one of them near-certain.
func TestBPMarginalsAreProbabilities(t *testing.T) {
	for _, eng := range bpSchedules(t) {
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
			nearCertain(priors, rng.Intn(n), rng.Intn(2) == 0)
			m := mustModel(t, g, priors)
			res, err := eng.Infer(context.Background(), m, nil, nil)
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
			t.Errorf("%s: %v", eng.Name(), err)
		}
	}
}

// Property: the model is symmetric under global label flip — flipping every
// prior p → 1−p, a near-certain one included, flips every marginal, for any
// engine.
func TestGlobalFlipSymmetry(t *testing.T) {
	engines := append(bpSchedules(t), PriorOnly{}, Exact{})
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
		sure := rng.Intn(n)
		nearCertain(priors, sure, true)
		nearCertain(flipped, sure, false)
		m1, m2 := mustModel(t, g, priors), mustModel(t, g, flipped)
		for _, eng := range engines {
			r1, err := eng.Infer(context.Background(), m1, nil, nil)
			if err != nil {
				return false
			}
			r2, err := eng.Infer(context.Background(), m2, nil, nil)
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
	model := mustTemperedModel(t, g, 0.01, nearCertain(append([]float64(nil), priors...), 0, true))
	res, err := bp.Infer(context.Background(), model, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(priors); i++ {
		if math.Abs(res.PUp[i]-priors[i]) > 0.02 {
			t.Errorf("node %d: tempered marginal %v far from prior %v", i, res.PUp[i], priors[i])
		}
	}
	// Invalid temper values are rejected.
	for _, temper := range []float64{0, -0.5, 1.5, math.NaN()} {
		if _, err := NewTopology(g, temper); err == nil {
			t.Errorf("temper %v accepted", temper)
		}
	}
}
