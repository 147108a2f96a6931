package mrf

import (
	"context"
	"fmt"
	"math"
)

// Jacobi is loopy sum-product BP under the synchronous schedule: every
// round recomputes every directed edge's message from the previous round's
// messages only. It is the reference the served BP engine is bounded
// against, and the schedule TestEnginesBitIdenticalGolden pins bit for bit:
// a round's messages depend on nothing but the last round's, so the answer
// is independent of the order nodes are visited in.
//
// Nothing serves Jacobi. Tests, and callers that pass it as
// core.EstimateOptions.Engine, reach it as they reach Exact. A run is serial,
// allocates its two message buffers, and polls ctx between rounds.
type Jacobi struct {
	cfg BPConfig
}

// NewJacobi returns a Jacobi-scheduled BP engine. Every message is damped
// by cfg.Damping each round, and the run stops once the round's largest
// undamped message change falls below cfg.Tolerance or after
// cfg.MaxIterations rounds.
func NewJacobi(cfg BPConfig) (*Jacobi, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Jacobi{cfg: cfg}, nil
}

// Name implements Engine.
func (*Jacobi) Name() string { return "jacobi" }

// sweep is one Jacobi round: it reads msg, writes every slot of next (each
// sender has ≥ 1 neighbour) and returns the round's largest message change.
func (j *Jacobi) sweep(m *Model, ev []int8, msg, next []float64) float64 {
	topo, damping := m.topo, j.cfg.Damping
	var maxDelta float64
	for u := 0; u < m.NumRoads(); u++ {
		lo, hi := int(topo.off[u]), int(topo.off[u+1])
		if lo == hi {
			continue
		}
		phiUp, phiDown := nodePotential(ev[u], m.prior[u])
		logUp, logDown := logProduct(0, 0, msg[lo:hi])
		for i := lo; i < hi; i++ {
			newMsg := cavityMessage(phiUp, phiDown, logUp, logDown, msg[i], topo.agree[i])
			slot := topo.rev[i]
			old := msg[slot]
			next[slot] = (1-damping)*newMsg + damping*old
			// Convergence tracks the undamped delta |new − old|: damping
			// scales the stored step by (1−d) but not the distance to the
			// fixed point, so testing the damped step against Tolerance
			// stops while the true change is still Tolerance/(1−d).
			if d := math.Abs(newMsg - old); d > maxDelta {
				maxDelta = d
			}
		}
	}
	return maxDelta
}

// run starts the messages uniform and runs rounds until Tolerance or
// MaxIterations, accounting the run either way. It returns the final
// message store, or an error wrapping ctx.Err() if ctx is cancelled
// before a round.
func (j *Jacobi) run(ctx context.Context, m *Model, ev []int8) ([]float64, error) {
	nEdges := m.topo.NumDirectedEdges()
	msg, next := make([]float64, nEdges), make([]float64, nEdges)
	seedMessages(msg)
	rounds := 0
	lastDelta := math.Inf(1)
	for rounds < j.cfg.MaxIterations {
		if err := ctx.Err(); err != nil {
			accountCancelledRun(float64(rounds), float64(rounds*nEdges))
			return nil, fmt.Errorf("mrf: jacobi cancelled after %d rounds: %w", rounds, err)
		}
		lastDelta = j.sweep(m, ev, msg, next)
		msg, next = next, msg
		rounds++
		if lastDelta < j.cfg.Tolerance {
			break
		}
	}
	accountCompletedRun(float64(rounds), float64(rounds*nEdges), lastDelta, lastDelta < j.cfg.Tolerance)
	return msg, nil
}

// Infer implements Engine. Messages are represented by their "up"
// probability; with binary states the "down" component is implied.
// Messages start uniform; warm is ignored.
func (j *Jacobi) Infer(ctx context.Context, m *Model, evidence []Evidence, _ *Beliefs) (*Result, error) {
	ev, err := evidenceMap(m, evidence)
	if err != nil {
		return nil, err
	}
	msg, err := j.run(ctx, m, ev)
	if err != nil {
		return nil, err
	}
	return &Result{PUp: marginals(m, ev, msg)}, nil
}
