// Package mrf implements the paper's step-1 graphical model: a pairwise
// binary Markov Random Field over the road correlation graph whose states
// are traffic trends (up/down relative to the historical average).
//
// Node potentials come from the historical trend prior of each road for the
// current slot; edge potentials encode the trend-agreement probability of
// each correlation edge, tempered once when the Topology is built;
// crowdsourced seed roads are clamped to their observed trend. Inference
// yields, for every non-seed road, the posterior probability that its trend
// is up.
//
// Four inference engines are provided (EngineNames): loopy belief
// propagation under a residual-priority schedule (BP, the served engine,
// matching the paper's use of approximate graphical-model inference), the
// same message kernel under the synchronous schedule (Jacobi, the serial
// reference BP is bounded against), exact enumeration (a test oracle for
// tiny graphs), and the history-only prior (PriorOnly, the lower bound the
// experiments score the graph against).
package mrf

import (
	"context"
	"fmt"
	"math"

	"repro/internal/roadnet"
)

// Evidence clamps one road's trend to an observed value.
type Evidence struct {
	Road roadnet.RoadID
	Up   bool
}

// Model is an MRF instance for one time slot: per-road node priors over a
// shared, immutable Topology.
type Model struct {
	topo  *Topology
	prior []float64 // P(x_r = up) per road, from history
}

// NewModel builds a model over the topology with the given per-road up-trend
// priors. Priors are clipped into [eps, 1-eps] so no state is impossible a
// priori. The topology is shared, not copied: callers that run many models
// over one graph (one per estimation round) build it once, so per-round
// model construction allocates only the clipped priors.
func NewModel(topo *Topology, prior []float64) (*Model, error) {
	if n := len(topo.off) - 1; n != len(prior) {
		return nil, fmt.Errorf("mrf: topology has %d roads but %d priors given", n, len(prior))
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
	return &Model{topo: topo, prior: p}, nil
}

// NumRoads returns the number of nodes in the model.
func (m *Model) NumRoads() int { return len(m.prior) }

// Result holds inferred trend marginals.
type Result struct {
	// PUp[r] is the posterior probability that road r's trend is up.
	PUp []float64
}

// Engine is a trend-inference algorithm.
type Engine interface {
	// Infer computes trend marginals given clamped seed evidence. Engines
	// observe ctx at their natural work boundaries (BP node-update batches,
	// Jacobi rounds, enumeration batches) and return ctx.Err() — possibly
	// wrapped — once it is cancelled, so an abandoned estimation round stops
	// burning CPU mid-inference instead of running to completion.
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
