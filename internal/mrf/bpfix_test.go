package mrf

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
)

// TestBPConvergenceResidualUndamped pins the damping/Tolerance interaction
// on the Jacobi schedule, which damps every round: the stopping criterion
// must compare the *undamped* message change against Tolerance. The stored step is (1−d)·|new − old|, so a criterion measured
// after damping stops once the true change has only shrunk to
// Tolerance/(1−d) — at d = 0.95 a 20× looser threshold, which on a
// slow-mixing chain leaves visibly unconverged marginals. The reference is
// the same chain driven to a 1e-10 residual without damping; the buggy
// criterion fails the bound below, the fixed one passes with margin.
func TestBPConvergenceResidualUndamped(t *testing.T) {
	const n = 60
	g := chainGraph(t, n, 0.95)
	priors := nearCertain(uniformPriors(n, 0.5), 0, true)

	ref, err := NewJacobi(BPConfig{MaxIterations: 20000, Damping: 0, Tolerance: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Infer(context.Background(), mustModel(t, g, priors), nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	damped, err := NewJacobi(BPConfig{MaxIterations: 20000, Damping: 0.95, Tolerance: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	got, err := damped.Infer(context.Background(), mustModel(t, g, priors), nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	var worst float64
	for i := range want.PUp {
		if d := math.Abs(got.PUp[i] - want.PUp[i]); d > worst {
			worst = d
		}
	}
	t.Logf("damping 0.95, tolerance 1e-3: max marginal error vs converged reference = %.3g", worst)
	// A run genuinely stopped at an undamped residual of 1e-3 lands at
	// ~6e-3 here; stopping at 20×Tolerance (the damped criterion) leaves
	// ~9e-2. The bound sits between with 3–4× margin on either side.
	if worst > 0.02 {
		t.Fatalf("max marginal error %.3g exceeds 0.02: the convergence test stopped on the damped step, not the true message change", worst)
	}
}

// TestBPFinalResidualObservedPerRun pins the final-residual metric as a
// per-run histogram: K concurrent Infer calls must record K observations.
// The metric used to be a single gauge written by every run; with K
// inferences running concurrently, the exported value was whichever run
// happened to write last. Run under -race this also proves the observation
// path is data-race free.
func TestBPFinalResidualObservedPerRun(t *testing.T) {
	const k = 8
	models := make([]*Model, k)
	for i := range models {
		models[i] = mustModel(t, chainGraph(t, 20+i, 0.9), nearCertain(uniformPriors(20+i, 0.5), 0, true))
	}
	bp := mustBP(t)
	before := bpFinalResidual.Count()

	var wg sync.WaitGroup
	errs := make([]error, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = bp.Infer(context.Background(), models[i], nil, nil)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	if got := bpFinalResidual.Count() - before; got != k {
		t.Fatalf("final-residual histogram recorded %d observations for %d concurrent runs, want %d", got, k, k)
	}
}

// TestBPCancelledRunsAccounted pins the cancellation side of the metric
// contract: a run abandoned mid-schedule still counts in
// trendspeed_bp_runs_total, contributes its partial progress to the
// iteration histogram, and increments trendspeed_bp_cancelled_total.
// Before the fix, Infer returned on the cancellation path with no
// accounting at all, so under deadline pressure the iteration histogram
// silently dropped exactly the slow runs an operator needs to see. The run
// here is Jacobi's, cancelled a few rounds in; TestFastBPCancelMidSchedule
// holds the served schedule to the same contract.
func TestBPCancelledRunsAccounted(t *testing.T) {
	m := mustModel(t, chainGraph(t, 40, 0.9), nearCertain(uniformPriors(40, 0.5), 0, true))
	runsBefore := bpRuns.Value()
	cancelledBefore := bpCancelled.Value()
	itersBefore := bpIterations.Count()

	ctx := &countdownCtx{Context: context.Background(), after: 3}
	res, err := mustJacobi(t).Infer(ctx, m, nil, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("Jacobi returned a result despite mid-run cancellation")
	}

	if got := bpRuns.Value() - runsBefore; got != 1 {
		t.Errorf("cancelled run added %v to trendspeed_bp_runs_total, want 1", got)
	}
	if got := bpCancelled.Value() - cancelledBefore; got != 1 {
		t.Errorf("cancelled run added %v to trendspeed_bp_cancelled_total, want 1", got)
	}
	if got := bpIterations.Count() - itersBefore; got != 1 {
		t.Errorf("cancelled run added %d iteration observations, want 1", got)
	}
}
