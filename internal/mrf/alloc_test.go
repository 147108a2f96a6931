package mrf

import (
	"context"
	"testing"
)

// warmInferAllocs runs bp.Infer once to warm the run pool, then returns the
// allocations per Infer and the message updates per Infer over 50 runs.
func warmInferAllocs(t *testing.T, bp *BP, m *Model) (allocs, updates float64) {
	t.Helper()
	ctx := context.Background()
	if _, err := bp.Infer(ctx, m, nil, nil); err != nil {
		t.Fatal(err)
	}
	const runs = 50
	var inferErr error
	before := MessageUpdatesTotal()
	allocs = testing.AllocsPerRun(runs, func() {
		if _, err := bp.Infer(ctx, m, nil, nil); err != nil {
			inferErr = err
		}
	})
	if inferErr != nil {
		t.Fatal(inferErr)
	}
	// AllocsPerRun makes one extra warm-up call besides the measured runs.
	return allocs, (MessageUpdatesTotal() - before) / (runs + 1)
}

// TestBPInferWarmPathAllocs bounds the served engine's full Infer on a warm
// run pool: with the pooled buffers reused, an Infer allocates only its
// fixed per-run state (the readout slice and the result, 2 allocations) —
// independent of how long the schedule runs. The grid is loopy and the Tolerance far below
// reach, so the schedule spends its whole budget, and an eightfold budget
// must do more work under the same fixed bound. The bound is not an exact
// count because under the race detector sync.Pool drops some releases.
func TestBPInferWarmPathAllocs(t *testing.T) {
	g, priors, err := gridForBench(12, 10)
	if err != nil {
		t.Fatal(err)
	}
	m := mustModel(t, g, nearCertain(nearCertain(priors, 0, true), 119, false))
	var allocs, updates [2]float64
	for i, maxIter := range []int{5, 40} {
		bp, err := NewBP(BPConfig{MaxIterations: maxIter, Damping: 0.3, Tolerance: 1e-12})
		if err != nil {
			t.Fatal(err)
		}
		allocs[i], updates[i] = warmInferAllocs(t, bp, m)
		t.Logf("BP Infer at MaxIterations %d: %.0f allocations, %.0f message updates per run",
			maxIter, allocs[i], updates[i])
	}
	if updates[1] <= updates[0] {
		t.Fatalf("MaxIterations 40 did %.0f message updates, MaxIterations 5 did %.0f: the schedule did not run longer",
			updates[1], updates[0])
	}
	// The bound is deliberately loose on the fixed cost and tight on
	// scaling: 40 rounds with even one allocation each would need ≥ 40.
	const maxFixed = 20
	if allocs[0] > maxFixed || allocs[1] > maxFixed {
		t.Fatalf("BP Infer allocates %.1f times at MaxIterations 5 and %.1f at 40, want ≤ %d fixed at both",
			allocs[0], allocs[1], maxFixed)
	}
}

// TestFastBPInferWarmPathAllocs pins the residual schedule (mrf.BP, which
// began as a separate FastBP engine) on a warm run pool: an Infer that
// converges allocates only its fixed per-run state — independent of how
// many node updates the schedule performs. The bucket queue is intrusive
// (pooled prev/next/head arrays), so scheduling itself must contribute
// nothing.
func TestFastBPInferWarmPathAllocs(t *testing.T) {
	const n = 64
	bp, err := NewBP(BPConfig{MaxIterations: 40, Damping: 0.3, Tolerance: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	m := mustModel(t, chainGraph(t, n, 0.8), uniformPriors(n, 0.5))
	allocs, _ := warmInferAllocs(t, bp, m)
	// Fixed per-run state: the readout slice and the result struct, 2
	// allocations on a warm pool. The bound is loose on the fixed cost, since
	// sync.Pool drops some releases under the race detector, and tight on
	// scaling: one allocation per node update would need ≫ 20.
	const maxFixed = 20
	t.Logf("BP Infer: %.0f allocations per run", allocs)
	if allocs > maxFixed {
		t.Fatalf("BP Infer allocates %.1f times per run, want ≤ %d fixed (independent of schedule length)", allocs, maxFixed)
	}
}
