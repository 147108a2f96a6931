// Package mrf implements the paper's step-1 graphical model: a pairwise
// binary Markov Random Field over the road correlation graph whose states
// are traffic trends (up/down relative to the historical average).
//
// Node potentials come from the historical trend prior of each road for the
// current slot; edge potentials encode the trend-agreement probability of
// each correlation edge; crowdsourced seed roads are clamped to their
// observed trend. Inference yields, for every non-seed road, the posterior
// probability that its trend is up.
//
// Six inference engines are provided (EngineNames): loopy belief
// propagation under a residual-priority schedule (BP, the served engine,
// matching the paper's use of approximate graphical-model inference), the
// same message kernel under the synchronous schedule (Jacobi, the serial
// reference BP is bounded against), exact enumeration (a test oracle for
// tiny graphs), iterated conditional modes and Gibbs sampling (ablation
// baselines), and the history-only prior (PriorOnly).
package mrf

import (
	"context"
	"fmt"
	"math"

	"repro/internal/corr"
	"repro/internal/roadnet"
)

// Evidence clamps one road's trend to an observed value.
type Evidence struct {
	Road roadnet.RoadID
	Up   bool
}

// Model is an MRF instance for one time slot.
type Model struct {
	graph  *corr.Graph
	topo   *Topology // message-passing structure; lazily built when absent
	prior  []float64 // P(x_r = up) per road, from history
	temper float64   // edge-potential temper in (0, 1]
}

// NewModel builds a model over the correlation graph with the given per-road
// up-trend priors. Priors are clipped into [eps, 1-eps] so no state is
// impossible a priori.
func NewModel(graph *corr.Graph, prior []float64) (*Model, error) {
	if graph.NumRoads() != len(prior) {
		return nil, fmt.Errorf("mrf: graph has %d roads but %d priors given", graph.NumRoads(), len(prior))
	}
	const eps = 1e-3
	p := make([]float64, len(prior))
	for i, v := range prior {
		if math.IsNaN(v) {
			return nil, fmt.Errorf("mrf: prior for road %d is NaN", i)
		}
		switch {
		case v < eps:
			v = eps
		case v > 1-eps:
			v = 1 - eps
		}
		p[i] = v
	}
	return &Model{graph: graph, prior: p, temper: 1}, nil
}

// NewModelWithTopology is NewModel for callers that run many models over the
// same immutable graph (one per estimation round): the precomputed topology
// is shared, so per-round model construction allocates only the clipped
// priors.
func NewModelWithTopology(topo *Topology, prior []float64) (*Model, error) {
	m, err := NewModel(topo.Graph(), prior)
	if err != nil {
		return nil, err
	}
	m.topo = topo
	return m, nil
}

// topology returns the model's message-passing structure, building and
// memoising it on first use. A Model belongs to a single inference round (one
// goroutine), so the lazy write is unsynchronised by design.
func (m *Model) topology() (*Topology, error) {
	if m.topo == nil {
		t, err := NewTopology(m.graph)
		if err != nil {
			return nil, err
		}
		m.topo = t
	}
	return m.topo, nil
}

// SetEdgeTemper scales every edge potential's pull toward agreement:
// a' = 0.5 + (a − 0.5)·t for t in (0, 1]. Loopy graphs double-count
// evidence around cycles, making marginals overconfident; tempering the
// edges compensates. t = 1 leaves the potentials untouched.
func (m *Model) SetEdgeTemper(t float64) error {
	if t <= 0 || t > 1 {
		return fmt.Errorf("mrf: edge temper must be in (0, 1], got %v", t)
	}
	m.temper = t
	return nil
}

// agreement returns the (possibly tempered) effective agreement of an edge.
func (m *Model) agreement(a float64) float64 {
	return 0.5 + (a-0.5)*m.temper
}

// NumRoads returns the number of nodes in the model.
func (m *Model) NumRoads() int { return len(m.prior) }

// Graph returns the underlying correlation graph.
func (m *Model) Graph() *corr.Graph { return m.graph }

// Result holds inferred trend marginals.
type Result struct {
	// PUp[r] is the posterior probability that road r's trend is up.
	PUp []float64
}

// Up reports the MAP trend of road r under the marginals.
func (r *Result) Up(id roadnet.RoadID) bool { return r.PUp[id] >= 0.5 }

// Engine is a trend-inference algorithm.
type Engine interface {
	// Infer computes trend marginals given clamped seed evidence. Engines
	// observe ctx at their natural work boundaries (BP node-update batches,
	// Jacobi rounds, ICM/Gibbs sweeps, enumeration batches) and return
	// ctx.Err() — possibly wrapped — once it is cancelled, so an abandoned
	// estimation round stops burning CPU mid-inference instead of running to
	// completion.
	//
	// Every engine ignores warm and starts cold; callers pass nil.
	Infer(ctx context.Context, m *Model, evidence []Evidence, warm *Beliefs) (*Result, error)
	// Name identifies the engine in experiment output.
	Name() string
}

// Beliefs is the type of Engine.Infer's warm argument, which every engine
// ignores: each trend inference starts from uniform messages.
type Beliefs struct{}

// evidenceMap validates evidence and converts it to a lookup table:
// -1 unobserved, 0 down, 1 up.
func evidenceMap(m *Model, evidence []Evidence) ([]int8, error) {
	ev := make([]int8, m.NumRoads())
	for i := range ev {
		ev[i] = -1
	}
	for _, e := range evidence {
		if int(e.Road) < 0 || int(e.Road) >= m.NumRoads() {
			return nil, fmt.Errorf("mrf: evidence road %d out of range", e.Road)
		}
		val := int8(0)
		if e.Up {
			val = 1
		}
		if ev[e.Road] != -1 && ev[e.Road] != val {
			return nil, fmt.Errorf("mrf: conflicting evidence for road %d", e.Road)
		}
		ev[e.Road] = val
	}
	return ev, nil
}

// edgePotential returns ψ(x_u, x_v) for agreement a: a when states match,
// 1-a otherwise.
func edgePotential(a float64, same bool) float64 {
	if same {
		return a
	}
	return 1 - a
}

// PriorOnly is the degenerate engine that ignores the graph and evidence
// except for clamped nodes; it is the "history only" lower bound in the
// experiments.
type PriorOnly struct{}

// Name implements Engine.
func (PriorOnly) Name() string { return "prior" }

// Infer implements Engine. The prior readout is a single pass, so ctx is
// only consulted at entry.
func (PriorOnly) Infer(ctx context.Context, m *Model, evidence []Evidence, _ *Beliefs) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ev, err := evidenceMap(m, evidence)
	if err != nil {
		return nil, err
	}
	out := make([]float64, m.NumRoads())
	copy(out, m.prior)
	for i, v := range ev {
		if v == 0 {
			out[i] = 0
		} else if v == 1 {
			out[i] = 1
		}
	}
	return &Result{PUp: out}, nil
}
