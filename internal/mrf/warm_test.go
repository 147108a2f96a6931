package mrf

import (
	"context"
	"math"
	"testing"

	"repro/internal/corr"
	"repro/internal/roadnet"
)

// gridSpecs returns the edge list of a w×h lattice, the same shape as
// gridForBench but as raw specs so tests can perturb agreements before
// building the graph.
func gridSpecs(w, h int) []corr.EdgeSpec {
	var es []corr.EdgeSpec
	id := func(x, y int) roadnet.RoadID { return roadnet.RoadID(y*w + x) }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				es = append(es, corr.EdgeSpec{U: id(x, y), V: id(x+1, y), Agreement: 0.72, N: 50})
			}
			if y+1 < h {
				es = append(es, corr.EdgeSpec{U: id(x, y), V: id(x, y+1), Agreement: 0.68, N: 50})
			}
		}
	}
	return es
}

func mustGraph(t *testing.T, n int, es []corr.EdgeSpec) *corr.Graph {
	t.Helper()
	g, err := corr.NewGraph(n, es)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestBPWarmStartCutsIterations is the payoff test: seeding BP with the
// previous converged beliefs, re-keyed onto the topology of a slightly
// perturbed graph the way rebuilds do it (NewTopology + Remap), must reach
// (numerically) the same marginals in strictly fewer rounds than a cold
// start.
func TestBPWarmStartCutsIterations(t *testing.T) {
	const w, h = 24, 16
	base := gridSpecs(w, h)
	perturbed := append([]corr.EdgeSpec(nil), base...)
	for i := 0; i < len(perturbed); i += 29 {
		perturbed[i].Agreement = math.Min(0.95, perturbed[i].Agreement+0.05)
	}
	g1 := mustGraph(t, w*h, base)
	g2 := mustGraph(t, w*h, perturbed)
	topo1, err := NewTopology(g1)
	if err != nil {
		t.Fatal(err)
	}
	topo2, err := NewTopology(g2)
	if err != nil {
		t.Fatal(err)
	}
	priors := make([]float64, w*h)
	for i := range priors {
		priors[i] = 0.3 + 0.4*float64(i%7)/6
	}
	ev := []Evidence{{Road: 5, Up: true}, {Road: roadnet.RoadID(w*h - 7), Up: false}}
	bp := mustBP(t)

	m1, err := NewModelWithTopology(topo1, priors)
	if err != nil {
		t.Fatal(err)
	}
	// Temper as the estimator does: untempered lattices oscillate and hit
	// MaxIterations, drowning the signal this test measures.
	if err := m1.SetEdgeTemper(0.2); err != nil {
		t.Fatal(err)
	}
	r1, err := bp.Infer(context.Background(), m1, ev, nil)
	if err != nil {
		t.Fatal(err)
	}
	warm := r1.Beliefs.Remap(topo2)
	if !warm.Compatible(topo2) {
		t.Fatal("cold run's beliefs, remapped, are not compatible with the perturbed topology")
	}

	iterations := func(warm *Beliefs) (float64, *Result) {
		m, err := NewModelWithTopology(topo2, priors)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.SetEdgeTemper(0.2); err != nil {
			t.Fatal(err)
		}
		before := bpIterations.Sum()
		res, err := bp.Infer(context.Background(), m, ev, warm)
		if err != nil {
			t.Fatal(err)
		}
		return bpIterations.Sum() - before, res
	}
	warmBefore := bpWarmStarts.Value()
	coldIters, coldRes := iterations(nil)
	if got := bpWarmStarts.Value(); got != warmBefore {
		t.Fatalf("cold run counted as warm start (%v -> %v)", warmBefore, got)
	}
	warmIters, warmRes := iterations(warm)
	if got := bpWarmStarts.Value(); got != warmBefore+1 {
		t.Fatalf("warm run not counted: warm-start counter %v -> %v", warmBefore, got)
	}
	if warmIters >= coldIters {
		t.Errorf("warm start took %v rounds, cold %v — expected a strict cut", warmIters, coldIters)
	}
	for i := range coldRes.PUp {
		if d := math.Abs(coldRes.PUp[i] - warmRes.PUp[i]); d > 5e-3 {
			t.Fatalf("road %d: warm marginal %v vs cold %v (diff %v)", i, warmRes.PUp[i], coldRes.PUp[i], d)
		}
	}
}

// TestBeliefsRemapAcrossShapeChange: beliefs remapped onto a topology whose
// edge set differs — one edge dropped, one added — must keep every surviving
// directed edge's converged message, start the new edges uniform, and be
// compatible with (and warm-start) the new topology, converging to the same
// marginals a cold start reaches.
func TestBeliefsRemapAcrossShapeChange(t *testing.T) {
	const w, h = 12, 9
	base := gridSpecs(w, h)
	g1 := mustGraph(t, w*h, base)
	topo1, err := NewTopology(g1)
	if err != nil {
		t.Fatal(err)
	}
	priors := make([]float64, w*h)
	for i := range priors {
		priors[i] = 0.3 + 0.4*float64(i%7)/6
	}
	ev := []Evidence{{Road: 0, Up: true}, {Road: roadnet.RoadID(w*h - 1), Up: false}}
	bp := mustBP(t)
	m1, err := NewModelWithTopology(topo1, priors)
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.SetEdgeTemper(0.2); err != nil {
		t.Fatal(err)
	}
	r1, err := bp.Infer(context.Background(), m1, ev, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Shape drift: drop the first lattice edge, add a long-range one — the
	// kind of in/out flip MaxNeighbors pruning produces on a rescore.
	reshaped := append([]corr.EdgeSpec(nil), base[1:]...)
	reshaped = append(reshaped, corr.EdgeSpec{U: 3, V: roadnet.RoadID(5*w + 7), Agreement: 0.7, N: 50})
	g2 := mustGraph(t, w*h, reshaped)
	topo2, err := NewTopology(g2)
	if err != nil {
		t.Fatal(err)
	}
	remapped := r1.Beliefs.Remap(topo2)
	if remapped == nil {
		t.Fatal("Remap returned nil for a same-node-count topology")
	}
	if !remapped.Compatible(topo2) {
		t.Fatal("remapped beliefs not compatible with the target topology")
	}
	// Check slot-by-slot: surviving edges carry their message, new ones 0.5.
	n := w * h
	for u := 0; u < n; u++ {
		for i := topo2.off[u]; i < topo2.off[u+1]; i++ {
			var want float64 = 0.5
			for j := topo1.off[u]; j < topo1.off[u+1]; j++ {
				if topo1.to[j] == topo2.to[i] {
					want = r1.Beliefs.msg[j]
					break
				}
			}
			if remapped.msg[i] != want {
				t.Fatalf("node %d slot %d (from %d): remapped message %v, want %v", u, i, topo2.to[i], remapped.msg[i], want)
			}
		}
	}
	// Remapping onto a different node count is refused.
	small, err := NewTopology(chainGraph(t, 5, 0.8))
	if err != nil {
		t.Fatal(err)
	}
	if got := r1.Beliefs.Remap(small); got != nil {
		t.Fatal("Remap accepted a topology with a different node count")
	}

	// The remapped warm start must reach the cold fixed point.
	run := func(warm *Beliefs) *Result {
		m, err := NewModelWithTopology(topo2, priors)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.SetEdgeTemper(0.2); err != nil {
			t.Fatal(err)
		}
		res, err := bp.Infer(context.Background(), m, ev, warm)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	warmBefore := bpWarmStarts.Value()
	cold := run(nil)
	warm := run(remapped)
	if got := bpWarmStarts.Value(); got != warmBefore+1 {
		t.Fatalf("remapped warm start not counted: warm-start counter %v -> %v", warmBefore, got)
	}
	for i := range cold.PUp {
		if d := math.Abs(cold.PUp[i] - warm.PUp[i]); d > 5e-3 {
			t.Fatalf("road %d: remapped-warm marginal %v vs cold %v (diff %v)", i, warm.PUp[i], cold.PUp[i], d)
		}
	}
}

// TestBPWarmStartIncompatibleIgnored: beliefs keyed to an unrelated topology
// must not influence the run at all — the result is bit-identical to a cold
// start.
func TestBPWarmStartIncompatibleIgnored(t *testing.T) {
	const w, h = 8, 6
	g1 := mustGraph(t, w*h, gridSpecs(w, h))
	g2 := mustGraph(t, w*h, gridSpecs(w, h))
	topo1, err := NewTopology(g1)
	if err != nil {
		t.Fatal(err)
	}
	topo2, err := NewTopology(g2) // equal values, distinct arrays — incompatible by design
	if err != nil {
		t.Fatal(err)
	}
	priors := uniformPriors(w*h, 0.6)
	ev := []Evidence{{Road: 3, Up: false}}
	bp := mustBP(t)
	m1, err := NewModelWithTopology(topo1, priors)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := bp.Infer(context.Background(), m1, ev, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Beliefs.Compatible(topo2) {
		t.Fatal("beliefs claim compatibility with an independently built topology")
	}
	run := func(warm *Beliefs) *Result {
		m, err := NewModelWithTopology(topo2, priors)
		if err != nil {
			t.Fatal(err)
		}
		res, err := bp.Infer(context.Background(), m, ev, warm)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	warmBefore := bpWarmStarts.Value()
	cold := run(nil)
	stale := run(r1.Beliefs)
	if got := bpWarmStarts.Value(); got != warmBefore {
		t.Fatalf("incompatible beliefs counted as warm start (%v -> %v)", warmBefore, got)
	}
	for i := range cold.PUp {
		if cold.PUp[i] != stale.PUp[i] {
			t.Fatalf("road %d: incompatible warm beliefs changed the marginal (%v vs %v)", i, stale.PUp[i], cold.PUp[i])
		}
	}
}

// TestNonBPEnginesCountWarmStartMisses: the Engine contract requires engines
// without message state to count a discarded non-nil warm argument in
// trendspeed_bp_warm_start_misses_total instead of silently ignoring it. BP
// consumes warm beliefs and must never count a miss.
func TestNonBPEnginesCountWarmStartMisses(t *testing.T) {
	const w, h = 4, 3
	g := mustGraph(t, w*h, gridSpecs(w, h))
	topo, err := NewTopology(g)
	if err != nil {
		t.Fatal(err)
	}
	priors := make([]float64, w*h)
	for i := range priors {
		priors[i] = 0.4 + 0.2*float64(i%3)/2
	}
	newModel := func() *Model {
		m, err := NewModelWithTopology(topo, priors)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	bp := mustBP(t)
	warmRes, err := bp.Infer(context.Background(), newModel(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if warmRes.Beliefs == nil {
		t.Fatal("BP exported no beliefs to replay")
	}

	engines := []Engine{Exact{}, ICM{}, Gibbs{Seed: 7}, PriorOnly{}}
	for _, eng := range engines {
		// A nil warm is the cold-start contract, not a miss.
		before := warmStartMisses.Value()
		if _, err := eng.Infer(context.Background(), newModel(), nil, nil); err != nil {
			t.Fatalf("%s cold: %v", eng.Name(), err)
		}
		if got := warmStartMisses.Value(); got != before {
			t.Fatalf("%s counted a miss for a nil warm argument (%v -> %v)", eng.Name(), before, got)
		}
		// A non-nil warm the engine cannot consume must count exactly once.
		if _, err := eng.Infer(context.Background(), newModel(), nil, warmRes.Beliefs); err != nil {
			t.Fatalf("%s warm: %v", eng.Name(), err)
		}
		if got := warmStartMisses.Value(); got != before+1 {
			t.Fatalf("%s: warm-start miss counter %v -> %v, want exactly +1", eng.Name(), before, got)
		}
	}

	// BP consumes the beliefs: warm starts are counted as warm starts, never
	// as misses.
	missBefore, warmBefore := warmStartMisses.Value(), bpWarmStarts.Value()
	if _, err := bp.Infer(context.Background(), newModel(), nil, warmRes.Beliefs); err != nil {
		t.Fatal(err)
	}
	if got := warmStartMisses.Value(); got != missBefore {
		t.Fatalf("BP counted a warm-start miss (%v -> %v)", missBefore, got)
	}
	if got := bpWarmStarts.Value(); got != warmBefore+1 {
		t.Fatalf("BP warm start not counted (%v -> %v)", warmBefore, got)
	}
}
