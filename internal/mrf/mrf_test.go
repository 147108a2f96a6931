package mrf

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/corr"
	"repro/internal/roadnet"
)

// chainGraph returns 0-1-2-...-(n-1) with uniform agreement a.
func chainGraph(t *testing.T, n int, a float64) *corr.Graph {
	t.Helper()
	var es []corr.EdgeSpec
	for i := 0; i < n-1; i++ {
		es = append(es, corr.EdgeSpec{U: roadnet.RoadID(i), V: roadnet.RoadID(i + 1), Agreement: a, N: 50})
	}
	g, err := corr.NewGraph(n, es)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// loopGraph returns a 4-cycle with uniform agreement a.
func loopGraph(t *testing.T, a float64) *corr.Graph {
	t.Helper()
	es := []corr.EdgeSpec{
		{U: 0, V: 1, Agreement: a, N: 50},
		{U: 1, V: 2, Agreement: a, N: 50},
		{U: 2, V: 3, Agreement: a, N: 50},
		{U: 3, V: 0, Agreement: a, N: 50},
	}
	g, err := corr.NewGraph(4, es)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func uniformPriors(n int, p float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = p
	}
	return out
}

// mustModel builds a model over g's untempered topology.
func mustModel(t *testing.T, g *corr.Graph, priors []float64) *Model {
	t.Helper()
	return mustTemperedModel(t, g, 1, priors)
}

// mustTemperedModel builds a model over g's topology tempered by temper.
func mustTemperedModel(t *testing.T, g *corr.Graph, temper float64, priors []float64) *Model {
	t.Helper()
	topo, err := NewTopology(g, temper)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(topo, priors)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// up reports the MAP trend of road id under the marginals.
func up(r *Result, id roadnet.RoadID) bool { return r.PUp[id] >= 0.5 }

func mustBP(t *testing.T) *BP {
	t.Helper()
	bp, err := NewBP(DefaultBPConfig())
	if err != nil {
		t.Fatal(err)
	}
	return bp
}

func mustJacobi(t *testing.T) *Jacobi {
	t.Helper()
	j, err := NewJacobi(DefaultBPConfig())
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// bpSchedules returns both message-passing engines on the default config:
// the served residual schedule and the Jacobi reference.
func bpSchedules(t *testing.T) []Engine {
	return []Engine{mustBP(t), mustJacobi(t)}
}

func TestNewModelValidation(t *testing.T) {
	topo, err := NewTopology(chainGraph(t, 3, 0.8), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewModel(topo, []float64{0.5}); err == nil {
		t.Error("prior length mismatch accepted")
	}
	if _, err := NewModel(topo, []float64{0.5, math.NaN(), 0.5}); err == nil {
		t.Error("NaN prior accepted")
	}
	// Extreme priors are clipped, not rejected.
	m, err := NewModel(topo, []float64{0, 1, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if m.prior[0] <= 0 || m.prior[1] >= 1 {
		t.Error("priors not clipped into the open interval")
	}
}

func TestEvidenceValidation(t *testing.T) {
	g := chainGraph(t, 3, 0.8)
	m := mustModel(t, g, uniformPriors(3, 0.5))
	bp := mustBP(t)
	if _, err := bp.Infer(context.Background(), m, []Evidence{{Road: 99, Up: true}}, nil); err == nil {
		t.Error("out-of-range evidence accepted")
	}
	if _, err := bp.Infer(context.Background(), m, []Evidence{{Road: 0, Up: true}, {Road: 0, Up: false}}, nil); err == nil {
		t.Error("conflicting evidence accepted")
	}
	// Duplicate consistent evidence is fine.
	if _, err := bp.Infer(context.Background(), m, []Evidence{{Road: 0, Up: true}, {Road: 0, Up: true}}, nil); err != nil {
		t.Errorf("consistent duplicate evidence rejected: %v", err)
	}
}

func TestBPConfigValidation(t *testing.T) {
	bad := []BPConfig{
		{MaxIterations: 0, Damping: 0.3, Tolerance: 1e-4},
		{MaxIterations: 10, Damping: 1.0, Tolerance: 1e-4},
		{MaxIterations: 10, Damping: -0.1, Tolerance: 1e-4},
		{MaxIterations: 10, Damping: 0.3, Tolerance: 0},
	}
	for i, cfg := range bad {
		if _, err := NewBP(cfg); err == nil {
			t.Errorf("bp: config %d accepted", i)
		}
		if _, err := NewJacobi(cfg); err == nil {
			t.Errorf("jacobi: config %d accepted", i)
		}
	}
}

func TestEvidencePropagatesAlongChain(t *testing.T) {
	// Clamp one end of a strongly-agreeing chain "up": every node's
	// posterior must rise above its 0.5 prior, monotonically fading with
	// distance.
	n := 6
	g := chainGraph(t, n, 0.9)
	m := mustModel(t, g, uniformPriors(n, 0.5))
	for _, eng := range bpSchedules(t) {
		res, err := eng.Infer(context.Background(), m, []Evidence{{Road: 0, Up: true}}, nil)
		if err != nil {
			t.Fatalf("%s: %v", eng.Name(), err)
		}
		if res.PUp[0] != 1 {
			t.Errorf("%s: clamped node PUp = %v", eng.Name(), res.PUp[0])
		}
		for i := 1; i < n; i++ {
			if res.PUp[i] <= 0.5 {
				t.Errorf("%s: node %d PUp = %v, want > 0.5", eng.Name(), i, res.PUp[i])
			}
		}
		// Influence decays with distance.
		for i := 2; i < n; i++ {
			if res.PUp[i] > res.PUp[i-1] {
				t.Errorf("%s: influence grew with distance: PUp[%d]=%v > PUp[%d]=%v",
					eng.Name(), i, res.PUp[i], i-1, res.PUp[i-1])
			}
		}
	}
}

func TestDownEvidencePullsDown(t *testing.T) {
	g := chainGraph(t, 3, 0.85)
	m := mustModel(t, g, uniformPriors(3, 0.5))
	for _, eng := range bpSchedules(t) {
		res, err := eng.Infer(context.Background(), m, []Evidence{{Road: 0, Up: false}}, nil)
		if err != nil {
			t.Fatalf("%s: %v", eng.Name(), err)
		}
		if res.PUp[0] != 0 {
			t.Errorf("%s: clamped node = %v", eng.Name(), res.PUp[0])
		}
		for i := 1; i < 3; i++ {
			if res.PUp[i] >= 0.5 {
				t.Errorf("%s: node %d PUp = %v, want < 0.5", eng.Name(), i, res.PUp[i])
			}
		}
		if up(res, 1) {
			t.Errorf("%s: Up(1) should be false", eng.Name())
		}
	}
}

func TestBPMatchesExactOnTree(t *testing.T) {
	// On a tree BP is exact; compare against enumeration.
	n := 5
	g := chainGraph(t, n, 0.8)
	priors := []float64{0.3, 0.6, 0.5, 0.7, 0.4}
	m := mustModel(t, g, priors)
	evidence := []Evidence{{Road: 2, Up: true}}
	exact, err := Exact{}.Infer(context.Background(), m, evidence, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range bpSchedules(t) {
		bpRes, err := eng.Infer(context.Background(), m, evidence, nil)
		if err != nil {
			t.Fatalf("%s: %v", eng.Name(), err)
		}
		for i := 0; i < n; i++ {
			if d := math.Abs(exact.PUp[i] - bpRes.PUp[i]); d > 1e-3 {
				t.Errorf("node %d: exact %v vs %s %v", i, exact.PUp[i], eng.Name(), bpRes.PUp[i])
			}
		}
	}
}

func TestBPCloseToExactOnLoop(t *testing.T) {
	// Loopy BP is approximate on cycles but should stay close on a small
	// one.
	g := loopGraph(t, 0.75)
	priors := []float64{0.4, 0.5, 0.6, 0.5}
	m := mustModel(t, g, priors)
	evidence := []Evidence{{Road: 0, Up: true}}
	exact, err := Exact{}.Infer(context.Background(), m, evidence, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range bpSchedules(t) {
		bpRes, err := eng.Infer(context.Background(), m, evidence, nil)
		if err != nil {
			t.Fatalf("%s: %v", eng.Name(), err)
		}
		for i := 0; i < 4; i++ {
			if d := math.Abs(exact.PUp[i] - bpRes.PUp[i]); d > 0.05 {
				t.Errorf("node %d: exact %v vs %s %v", i, exact.PUp[i], eng.Name(), bpRes.PUp[i])
			}
		}
	}
}

// TestBPPropagatesAgainstDownLeaningPrior: on a strongly agreeing chain
// whose priors all lean down, clamping one end up must still lift its
// neighbour above 0.5. A greedy single-site update stops at that neighbour,
// whose own prior and still-down other neighbour outvote the clamp; BP
// weighs the evidence instead.
func TestBPPropagatesAgainstDownLeaningPrior(t *testing.T) {
	n := 5
	g := chainGraph(t, n, 0.9)
	m := mustModel(t, g, uniformPriors(n, 0.45))
	res, err := mustBP(t).Infer(context.Background(), m, []Evidence{{Road: 0, Up: true}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.PUp[1] <= 0.5 {
		t.Errorf("BP did not carry the clamp past the down-leaning prior: PUp[1]=%v", res.PUp[1])
	}
}

func TestExactRefusesLargeProblems(t *testing.T) {
	g := chainGraph(t, 30, 0.8)
	m := mustModel(t, g, uniformPriors(30, 0.5))
	if _, err := (Exact{}).Infer(context.Background(), m, nil, nil); err == nil {
		t.Error("exact inference over 30 free nodes accepted")
	}
	// Clamping most nodes brings the free count under a raised cap.
	var ev []Evidence
	for i := 0; i < 20; i++ {
		ev = append(ev, Evidence{Road: roadnet.RoadID(i), Up: true})
	}
	if _, err := (Exact{MaxFreeNodes: 12}).Infer(context.Background(), m, ev, nil); err != nil {
		t.Errorf("10 free nodes under a 12-node cap rejected: %v", err)
	}
}

func TestPriorOnlyEngine(t *testing.T) {
	g := chainGraph(t, 3, 0.9)
	m := mustModel(t, g, []float64{0.2, 0.5, 0.8})
	res, err := PriorOnly{}.Infer(context.Background(), m, []Evidence{{Road: 1, Up: true}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.PUp[1] != 1 {
		t.Error("evidence not applied")
	}
	if math.Abs(res.PUp[0]-0.2) > 1e-2 || math.Abs(res.PUp[2]-0.8) > 1e-2 {
		t.Error("priors not passed through")
	}
}

func TestIsolatedNodesKeepPrior(t *testing.T) {
	// A graph with an isolated node: inference must not disturb it.
	g, err := corr.NewGraph(3, []corr.EdgeSpec{{U: 0, V: 1, Agreement: 0.8, N: 10}})
	if err != nil {
		t.Fatal(err)
	}
	m := mustModel(t, g, []float64{0.5, 0.5, 0.7})
	res, err := mustBP(t).Infer(context.Background(), m, []Evidence{{Road: 0, Up: true}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.PUp[2]-0.7) > 1e-9 {
		t.Errorf("isolated node moved to %v", res.PUp[2])
	}
	if res.PUp[1] <= 0.5 {
		t.Errorf("connected node ignored evidence: %v", res.PUp[1])
	}
}

func TestEngineNames(t *testing.T) {
	names := map[string]Engine{
		"bp":     mustBP(t),
		"jacobi": mustJacobi(t),
		"exact":  Exact{},
		"prior":  PriorOnly{},
	}
	for want, eng := range names {
		if got := eng.Name(); got != want {
			t.Errorf("Name = %q, want %q", got, want)
		}
	}
}

// TestNewEngineFactory covers the operator-facing construction point: the
// four registered names, an unknown one — including the residual schedule's
// retired name "fastbp" and the deleted "icm" and "gibbs" — and the
// message-passing engines' config check.
func TestNewEngineFactory(t *testing.T) {
	want := []string{"bp", "jacobi", "exact", "prior"}
	if got := EngineNames(); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("EngineNames() = %v, want %v", got, want)
	}
	for _, name := range EngineNames() {
		eng, err := NewEngine(name, DefaultBPConfig())
		if err != nil {
			t.Fatalf("NewEngine(%q): %v", name, err)
		}
		if eng.Name() != name {
			t.Errorf("NewEngine(%q).Name() = %q", name, eng.Name())
		}
	}
	for _, name := range []string{"nope", "fastbp", "icm", "gibbs"} {
		if _, err := NewEngine(name, DefaultBPConfig()); err == nil {
			t.Errorf("unknown engine name %q accepted", name)
		}
	}
	for _, name := range []string{"bp", "jacobi"} {
		if _, err := NewEngine(name, BPConfig{}); err == nil {
			t.Errorf("invalid BPConfig accepted for %s", name)
		}
	}
}
