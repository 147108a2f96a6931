package mrf

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// bpEquivalenceBound is the marginal-agreement bound between the served
// residual schedule and the Jacobi reference: the serving-layer trend bound.
const bpEquivalenceBound = 0.01

// maxMarginalDiff returns the largest per-road |ΔPUp| between two results.
func maxMarginalDiff(a, b *Result) float64 {
	var worst float64
	for i := range a.PUp {
		if d := math.Abs(a.PUp[i] - b.PUp[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// TestBPMatchesJacobiRandomGraphs is the cold-start equivalence property:
// over random graphs, priors and tempers, the served BP
// engine's marginals agree with the Jacobi reference within the serving
// bound. Both engines run at a Tolerance well below the bound so the
// comparison measures schedule/precision divergence, not convergence slop.
func TestBPMatchesJacobiRandomGraphs(t *testing.T) {
	cfg := BPConfig{MaxIterations: 500, Damping: 0.3, Tolerance: 1e-7}
	jacobi, err := NewJacobi(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := NewBP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 50; seed++ {
		m, temper := randomEquivalenceCase(t, seed)
		want, err := jacobi.Infer(context.Background(), m, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := bp.Infer(context.Background(), m, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if d := maxMarginalDiff(got, want); d > bpEquivalenceBound {
			t.Errorf("seed %d (n=%d, temper=%.2f): max |ΔPUp| = %.3g exceeds %.2g",
				seed, m.NumRoads(), temper, d, bpEquivalenceBound)
		}
	}
}

// TestFastBPMarginalsAreProbabilities checks the residual schedule's
// marginals are probabilities on a fixed run of 30 random graphs and priors,
// one of them near-certain.
func TestFastBPMarginalsAreProbabilities(t *testing.T) {
	bp := mustBP(t)
	for seed := int64(100); seed < 130; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(10)
		g, err := randomSmallGraph(rng, n)
		if err != nil {
			t.Fatal(err)
		}
		priors := make([]float64, n)
		for i := range priors {
			priors[i] = rng.Float64()
		}
		m := mustModel(t, g, nearCertain(priors, rng.Intn(n), rng.Intn(2) == 0))
		res, err := bp.Infer(context.Background(), m, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range res.PUp {
			if p < 0 || p > 1 || math.IsNaN(p) {
				t.Fatalf("seed %d road %d: marginal %v is not a probability", seed, i, p)
			}
		}
	}
}

// TestFastBPDeterministic: the residual schedule is serial and the bucket
// queue breaks ties deterministically, so identical inputs give
// bitwise-identical marginals run to run — the property that keeps served
// results reproducible even though BP is not bitwise-equal to Jacobi.
func TestFastBPDeterministic(t *testing.T) {
	m := mustModel(t, loopGraph(t, 0.9), nearCertain(uniformPriors(4, 0.3), 0, true))
	bp := mustBP(t)
	a, err := bp.Infer(context.Background(), m, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := bp.Infer(context.Background(), m, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.PUp {
		if a.PUp[i] != b.PUp[i] {
			t.Fatalf("road %d: %v then %v across identical runs", i, a.PUp[i], b.PUp[i])
		}
	}
}

// TestFastBPCancelMidSchedule: cancellation between residual-schedule steps
// abandons the run with a wrapped context error, accounts it under the
// cancellation metric contract, and still releases the pooled run state,
// exactly once.
func TestFastBPCancelMidSchedule(t *testing.T) {
	// Big enough that the initial sweep crosses the 1024-update ctx poll.
	const n = 3000
	m := mustModel(t, chainGraph(t, n, 0.9), nearCertain(uniformPriors(n, 0.5), 0, true))
	bp := mustBP(t)

	runsBefore := bpRuns.Value()
	cancelledBefore := bpCancelled.Value()
	releasedBefore := bp.pool.released.Load()
	ctx := &countdownCtx{Context: context.Background(), after: 1}
	res, err := bp.Infer(ctx, m, nil, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("BP returned a result despite mid-schedule cancellation")
	}
	if got := bpRuns.Value() - runsBefore; got != 1 {
		t.Errorf("cancelled run added %v to trendspeed_bp_runs_total, want 1", got)
	}
	if got := bpCancelled.Value() - cancelledBefore; got != 1 {
		t.Errorf("cancelled run added %v to trendspeed_bp_cancelled_total, want 1", got)
	}
	// Counted at the teardown rather than fetched back from the pool:
	// sync.Pool may drop any Put, so an empty Get proves nothing.
	if got := bp.pool.released.Load() - releasedBefore; got != 1 {
		t.Errorf("cancelled run released its state %d times, want exactly 1", got)
	}
}

// TestFastBPConfigValidation: the residual schedule rejects each invalid
// field, since its budget and fallback damping read all three.
func TestFastBPConfigValidation(t *testing.T) {
	if _, err := NewBP(BPConfig{MaxIterations: 0, Damping: 0.3, Tolerance: 1e-4}); err == nil {
		t.Error("MaxIterations 0 accepted")
	}
	if _, err := NewBP(BPConfig{MaxIterations: 10, Damping: 1, Tolerance: 1e-4}); err == nil {
		t.Error("Damping 1 accepted")
	}
	if _, err := NewBP(BPConfig{MaxIterations: 10, Damping: 0.3, Tolerance: 0}); err == nil {
		t.Error("Tolerance 0 accepted")
	}
}
