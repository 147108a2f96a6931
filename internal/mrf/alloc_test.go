package mrf

import (
	"context"
	"testing"
)

// TestBPRoundAllocs pins the hot-path claim the hotalloc analyzer and the
// //lint:hotpath-ok waivers in par rest on: once a run's state is set up
// (pooled run bound, the sweep method value created), one BP message
// round allocates nothing on the serial path. Workers is forced to 1 so the
// measurement stays on the inline path regardless of GOMAXPROCS; at city
// scale the parallel path adds only the per-round worker closures.
func TestBPRoundAllocs(t *testing.T) {
	const n = 64
	bp, err := NewBP(BPConfig{MaxIterations: 50, Damping: 0.3, Tolerance: 1e-12, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	m := mustModel(t, chainGraph(t, n, 0.8), uniformPriors(n, 0.5))
	ev, err := evidenceMap(m, []Evidence{{Road: 0, Up: true}})
	if err != nil {
		t.Fatal(err)
	}
	topo, err := m.topology()
	if err != nil {
		t.Fatal(err)
	}
	r := newBPRun(bp, m, topo, ev)
	defer r.release(bp)
	ctx := context.Background()
	if _, err := r.round(ctx); err != nil { // warm-up: nothing lazily grows after this
		t.Fatal(err)
	}
	var roundErr error
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := r.round(ctx); err != nil {
			roundErr = err
		}
	})
	if roundErr != nil {
		t.Fatal(roundErr)
	}
	if allocs != 0 {
		t.Fatalf("BP message round allocates %.1f times per round on the serial path, want 0", allocs)
	}
}

// TestBPInferWarmPathAllocs bounds the full Infer on a warm run pool: with
// the pooled buffers reused, an Infer allocates only its fixed per-run state
// (evidence map, readout binding and output, result) — independent of the
// round count. A per-round allocation would scale with MaxIterations and
// blow the bound.
func TestBPInferWarmPathAllocs(t *testing.T) {
	const n = 64
	bp, err := NewBP(BPConfig{MaxIterations: 40, Damping: 0.3, Tolerance: 1e-12, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	m := mustModel(t, chainGraph(t, n, 0.8), uniformPriors(n, 0.5))
	ctx := context.Background()
	if _, err := bp.Infer(ctx, m, nil, nil); err != nil {
		t.Fatal(err)
	}
	var inferErr error
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := bp.Infer(ctx, m, nil, nil); err != nil {
			inferErr = err
		}
	})
	if inferErr != nil {
		t.Fatal(inferErr)
	}
	// The bound is deliberately loose on the fixed cost and tight on
	// scaling: 40 rounds with even one allocation each would need ≥ 40.
	const maxFixed = 20
	t.Logf("BP Infer: %.0f allocations per run", allocs)
	if allocs > maxFixed {
		t.Fatalf("BP Infer allocates %.1f times per run, want ≤ %d fixed (independent of %d rounds)",
			allocs, maxFixed, bp.cfg.MaxIterations)
	}
}

// TestFastBPInferWarmPathAllocs extends the alloc pins to the residual
// schedule: on a warm run pool, a FastBP Infer allocates only its fixed
// per-run state — independent of how many node updates the schedule
// performs. The bucket queue is intrusive (pooled prev/next/head arrays), so
// scheduling itself must contribute nothing.
func TestFastBPInferWarmPathAllocs(t *testing.T) {
	const n = 64
	fast, err := NewFastBP(BPConfig{MaxIterations: 40, Damping: 0.3, Tolerance: 1e-6, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	m := mustModel(t, chainGraph(t, n, 0.8), uniformPriors(n, 0.5))
	ctx := context.Background()
	if _, err := fast.Infer(ctx, m, nil, nil); err != nil {
		t.Fatal(err)
	}
	var inferErr error
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := fast.Infer(ctx, m, nil, nil); err != nil {
			inferErr = err
		}
	})
	if inferErr != nil {
		t.Fatal(inferErr)
	}
	// Fixed per-run state: evidence map, readout slice, result struct. Same
	// scaling logic as the Jacobi pin: one allocation per node update would
	// need ≫ 20.
	const maxFixed = 20
	t.Logf("FastBP Infer: %.0f allocations per run", allocs)
	if allocs > maxFixed {
		t.Fatalf("FastBP Infer allocates %.1f times per run, want ≤ %d fixed (independent of schedule length)", allocs, maxFixed)
	}
}
