package mrf

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/roadnet"
)

func mustFastBP(t *testing.T) *FastBP {
	t.Helper()
	fb, err := NewFastBP(DefaultBPConfig())
	if err != nil {
		t.Fatal(err)
	}
	return fb
}

// fastBPEquivalenceBound is the marginal-agreement bound between the
// residual-scheduled engine and the Jacobi reference: the serving-layer
// trend bound (ISSUE 10 / ROADMAP item 4).
const fastBPEquivalenceBound = 0.01

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

// TestFastBPMatchesJacobiRandomGraphs is the cold-start equivalence
// property: over random graphs, priors, tempers and evidence mixes, FastBP
// marginals agree with the Jacobi reference within the serving bound. Both
// engines run at a Tolerance well below the bound so the comparison
// measures schedule/precision divergence, not convergence slop.
func TestFastBPMatchesJacobiRandomGraphs(t *testing.T) {
	cfg := BPConfig{MaxIterations: 500, Damping: 0.3, Tolerance: 1e-7, Workers: 1}
	bp, err := NewBP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := NewFastBP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 50; seed++ {
		m, ev := randomEquivalenceCase(t, seed)
		want, err := bp.Infer(context.Background(), m, ev, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := fast.Infer(context.Background(), m, ev, nil)
		if err != nil {
			t.Fatal(err)
		}
		if d := maxMarginalDiff(got, want); d > fastBPEquivalenceBound {
			t.Errorf("seed %d (n=%d, temper=%.2f, %d evidence): max |ΔPUp| = %.3g exceeds %.2g",
				seed, m.NumRoads(), m.temper, len(ev), d, fastBPEquivalenceBound)
		}
	}
}

// TestFastBPMarginalsAreProbabilities mirrors the BP property for the
// residual-scheduled engine.
func TestFastBPMarginalsAreProbabilities(t *testing.T) {
	fast := mustFastBP(t)
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
		m := mustModel(t, g, priors)
		res, err := fast.Infer(context.Background(), m, []Evidence{{Road: roadnet.RoadID(rng.Intn(n)), Up: rng.Intn(2) == 0}}, nil)
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

// TestFastBPDeterministic: the schedule is serial and the bucket queue
// breaks ties deterministically, so identical inputs give bitwise-identical
// marginals run to run — the property that lets per-shard results stay
// reproducible even though FastBP is not bitwise-equal to Jacobi.
func TestFastBPDeterministic(t *testing.T) {
	m := mustModel(t, loopGraph(t, 0.9), uniformPriors(4, 0.3))
	fast := mustFastBP(t)
	ev := []Evidence{{Road: 0, Up: true}}
	a, err := fast.Infer(context.Background(), m, ev, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fast.Infer(context.Background(), m, ev, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.PUp {
		if a.PUp[i] != b.PUp[i] {
			t.Fatalf("road %d: %v then %v across identical runs", i, a.PUp[i], b.PUp[i])
		}
	}
}

// TestFastBPWarmStart: warm-starting from either engine's exported beliefs
// must count in trendspeed_bp_warm_starts_total, converge to the same
// marginals as a cold run, and do so with strictly less scheduled work —
// the whole point of residual scheduling.
func TestFastBPWarmStart(t *testing.T) {
	const n = 64
	m := mustModel(t, chainGraph(t, n, 0.9), uniformPriors(n, 0.5))
	fast := mustFastBP(t)
	bp := mustBP(t)
	ev := []Evidence{{Road: 0, Up: true}}

	cold, err := fast.Infer(context.Background(), m, ev, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Warm from FastBP's own beliefs.
	warmBefore := bpWarmStarts.Value()
	warm, err := fast.Infer(context.Background(), m, ev, cold.Beliefs)
	if err != nil {
		t.Fatal(err)
	}
	if bpWarmStarts.Value() != warmBefore+1 {
		t.Error("warm-started FastBP run did not count in trendspeed_bp_warm_starts_total")
	}
	if d := maxMarginalDiff(warm, cold); d > 1e-3 {
		t.Errorf("warm-started marginals drift %.3g from cold", d)
	}

	// Warm from the Jacobi engine's beliefs (cross-engine hand-off): both
	// engines share one message store layout.
	jac, err := bp.Infer(context.Background(), m, ev, nil)
	if err != nil {
		t.Fatal(err)
	}
	crossWarm, err := fast.Infer(context.Background(), m, ev, jac.Beliefs)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxMarginalDiff(crossWarm, cold); d > 1e-3 {
		t.Errorf("Jacobi-warm-started marginals drift %.3g from cold", d)
	}

	// And the reverse: Jacobi consumes FastBP beliefs.
	jacWarm, err := bp.Infer(context.Background(), m, ev, cold.Beliefs)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxMarginalDiff(jacWarm, jac); d > 1e-3 {
		t.Errorf("FastBP-warm-started Jacobi marginals drift %.3g from cold Jacobi", d)
	}
}

// TestFastBPWarmStartDoesLessWork pins the speed mechanism itself: a run
// warm-started from its own converged beliefs must schedule strictly fewer
// message updates than the cold run that produced them. The graph is a
// loopy lattice — on a tree the cold run already converges in one
// Gauss-Seidel sweep, which is the floor every run pays (the initial sweep
// is what discovers the residuals).
func TestFastBPWarmStartDoesLessWork(t *testing.T) {
	g, priors, err := gridForBench(16, 12)
	if err != nil {
		t.Fatal(err)
	}
	m := mustModel(t, g, priors)
	fast := mustFastBP(t)
	ev := []Evidence{{Road: 0, Up: true}}

	before := MessageUpdatesTotal()
	cold, err := fast.Infer(context.Background(), m, ev, nil)
	if err != nil {
		t.Fatal(err)
	}
	coldWork := MessageUpdatesTotal() - before

	before = MessageUpdatesTotal()
	if _, err := fast.Infer(context.Background(), m, ev, cold.Beliefs); err != nil {
		t.Fatal(err)
	}
	warmWork := MessageUpdatesTotal() - before
	t.Logf("cold run: %.0f message updates; warm restart: %.0f", coldWork, warmWork)
	if warmWork >= coldWork {
		t.Errorf("warm restart scheduled %.0f message updates, cold run only %.0f — residual scheduling is not collapsing converged regions", warmWork, coldWork)
	}
}

// TestFastBPCancelMidSchedule: cancellation between schedule steps abandons
// the run with a wrapped context error, accounts it under the cancellation
// metric contract, and still releases the pooled run state, exactly once.
func TestFastBPCancelMidSchedule(t *testing.T) {
	// Big enough that the initial sweep crosses the 1024-update ctx poll.
	const n = 3000
	m := mustModel(t, chainGraph(t, n, 0.9), uniformPriors(n, 0.5))
	fast := mustFastBP(t)

	runsBefore := bpRuns.Value()
	cancelledBefore := bpCancelled.Value()
	releasedBefore := fast.pool.released.Load()
	ctx := &countdownCtx{Context: context.Background(), after: 1}
	res, err := fast.Infer(ctx, m, []Evidence{{Road: 0, Up: true}}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("FastBP returned a result despite mid-schedule cancellation")
	}
	if got := bpRuns.Value() - runsBefore; got != 1 {
		t.Errorf("cancelled run added %v to trendspeed_bp_runs_total, want 1", got)
	}
	if got := bpCancelled.Value() - cancelledBefore; got != 1 {
		t.Errorf("cancelled run added %v to trendspeed_bp_cancelled_total, want 1", got)
	}
	// Counted at the teardown rather than fetched back from the pool:
	// sync.Pool may drop any Put, so an empty Get proves nothing.
	if got := fast.pool.released.Load() - releasedBefore; got != 1 {
		t.Errorf("cancelled run released its state %d times, want exactly 1", got)
	}
}

// TestFastBPConfigValidation mirrors the BP constructor contract.
func TestFastBPConfigValidation(t *testing.T) {
	if _, err := NewFastBP(BPConfig{MaxIterations: 0, Damping: 0.3, Tolerance: 1e-4}); err == nil {
		t.Error("MaxIterations 0 accepted")
	}
	if _, err := NewFastBP(BPConfig{MaxIterations: 10, Damping: 1, Tolerance: 1e-4}); err == nil {
		t.Error("Damping 1 accepted")
	}
	if _, err := NewFastBP(BPConfig{MaxIterations: 10, Damping: 0.3, Tolerance: 0}); err == nil {
		t.Error("Tolerance 0 accepted")
	}
}

// TestNewEngineFactory covers the operator-facing construction point.
func TestNewEngineFactory(t *testing.T) {
	for _, name := range EngineNames() {
		eng, err := NewEngine(name, DefaultBPConfig())
		if err != nil {
			t.Fatalf("NewEngine(%q): %v", name, err)
		}
		if eng.Name() != name {
			t.Errorf("NewEngine(%q).Name() = %q", name, eng.Name())
		}
	}
	if _, err := NewEngine("nope", DefaultBPConfig()); err == nil {
		t.Error("unknown engine name accepted")
	}
	if _, err := NewEngine("bp", BPConfig{}); err == nil {
		t.Error("invalid BPConfig accepted for bp")
	}
	if _, err := NewEngine("fastbp", BPConfig{}); err == nil {
		t.Error("invalid BPConfig accepted for fastbp")
	}
}
