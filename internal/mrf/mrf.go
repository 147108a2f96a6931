// Package mrf implements the paper's step-1 graphical model: a pairwise
// binary Markov Random Field over the road correlation graph whose states
// are traffic trends (up/down relative to the historical average).
//
// A model's node priors are its only input. Each comes from the road's
// historical trend prior for the current slot or, on a crowdsourced seed
// road, from the probability that its trend is up given the noisy report:
// a report is an observation, not a certainty, so no road is ever clamped
// to a trend. Edge potentials encode the trend-agreement probability of
// each correlation edge, tempered once when the Topology is built.
// Inference yields, for every road, the posterior probability that its
// trend is up.
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
	"errors"
	"fmt"
	"math"

	"repro/internal/roadnet"
)

// Evidence is the element type of Engine.Infer's evidence argument, a hard
// clamp of one road's trend, which every engine refuses with ErrPriorsOnly.
type Evidence struct {
	Road roadnet.RoadID
	Up   bool
}

// ErrPriorsOnly is the error every engine returns when Infer is passed a
// non-empty evidence slice or a non-nil warm: a model's node priors are its
// only input.
var ErrPriorsOnly = errors.New("mrf: node priors are the only input; evidence and warm must be empty")

// refuseInputs returns ErrPriorsOnly unless evidence is empty and warm nil.
func refuseInputs(evidence []Evidence, warm *Beliefs) error {
	if len(evidence) > 0 || warm != nil {
		return ErrPriorsOnly
	}
	return nil
}

// Model is an MRF instance for one time slot: per-road node priors over a
// shared, immutable Topology.
type Model struct {
	topo  *Topology
	prior []float64 // P(x_r = up) per road, from history
}

// NewModel builds a model over the topology with the given per-road up-trend
// priors. Priors are clipped into [eps, 1-eps] so no state is impossible a
// priori and no engine takes the log of zero. The topology is shared, not
// copied: callers that run many models over one graph (one per round) build
// it once, so per-round model construction allocates only the clipped priors.
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
	// Infer computes the trend marginals of m from its node priors. Engines
	// observe ctx at their natural work boundaries (BP node-update batches,
	// Jacobi rounds, enumeration batches) and return ctx.Err() — possibly
	// wrapped — once it is cancelled, so an abandoned estimation round stops
	// burning CPU mid-inference instead of running to completion.
	//
	// evidence and warm must be empty: every engine refuses a non-empty
	// evidence slice or a non-nil warm with ErrPriorsOnly, and every run
	// starts from uniform messages. The two parameters remain only because
	// the benchmark's traced server (bench/tracedserver) implements this
	// signature to time the engine it wraps; they go once it stops doing so.
	Infer(ctx context.Context, m *Model, evidence []Evidence, warm *Beliefs) (*Result, error)
	// Name identifies the engine in experiment output.
	Name() string
}

// Beliefs is the type of Engine.Infer's warm argument, which every engine
// refuses with ErrPriorsOnly.
type Beliefs struct{}

// edgePotential returns ψ(x_u, x_v) for agreement a: a when states match,
// 1-a otherwise.
func edgePotential(a float64, same bool) float64 {
	if same {
		return a
	}
	return 1 - a
}

// PriorOnly is the degenerate engine that ignores the graph: it returns the
// node priors as the marginals, the "history only" lower bound in the
// experiments.
type PriorOnly struct{}

// Name implements Engine.
func (PriorOnly) Name() string { return "prior" }

// Infer implements Engine. The prior readout is a single pass, so ctx is
// only consulted at entry.
func (PriorOnly) Infer(ctx context.Context, m *Model, evidence []Evidence, warm *Beliefs) (*Result, error) {
	if err := refuseInputs(evidence, warm); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([]float64, m.NumRoads())
	copy(out, m.prior)
	return &Result{PUp: out}, nil
}
