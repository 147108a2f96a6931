package mrf

import (
	"context"
	"fmt"
	"math"
)

// cancelCheckMasks is how many joint assignments Exact enumerates between
// ctx polls; a power of two so the check is a cheap mask test.
const cancelCheckMasks = 1 << 12

// Exact computes marginals by enumerating every joint assignment of the free
// (unclamped) nodes. It exists as a correctness oracle for the approximate
// engines; MaxFreeNodes bounds the 2^n blow-up.
type Exact struct {
	// MaxFreeNodes caps the number of unclamped nodes (default 20).
	MaxFreeNodes int
}

// Name implements Engine.
func (Exact) Name() string { return "exact" }

// Infer implements Engine. ctx is polled every cancelCheckMasks assignments.
func (e Exact) Infer(ctx context.Context, m *Model, evidence []Evidence, _ *Beliefs) (*Result, error) {
	maxFree := e.MaxFreeNodes
	if maxFree == 0 {
		maxFree = 20
	}
	ev, err := evidenceMap(m, evidence)
	if err != nil {
		return nil, err
	}
	free := make([]int, 0, len(ev))
	for i, v := range ev {
		if v == -1 {
			free = append(free, i)
		}
	}
	if len(free) > maxFree {
		return nil, fmt.Errorf("mrf: exact inference over %d free nodes exceeds the %d-node cap", len(free), maxFree)
	}
	n := m.NumRoads()
	state := make([]bool, n)
	for i, v := range ev {
		state[i] = v == 1
	}
	upMass := make([]float64, n)
	var z float64
	topo := m.topo
	for mask := 0; mask < 1<<len(free); mask++ {
		if mask%cancelCheckMasks == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("mrf: exact enumeration interrupted at mask %d: %w", mask, err)
			}
		}
		for bit, node := range free {
			state[node] = mask&(1<<bit) != 0
		}
		// Unnormalised joint probability.
		logp := 0.0
		for i := 0; i < n; i++ {
			p := m.prior[i]
			if ev[i] == 1 {
				p = 1
			} else if ev[i] == 0 {
				p = 0
			}
			if state[i] {
				logp += math.Log(clamp01(p))
			} else {
				logp += math.Log(clamp01(1 - p))
			}
		}
		for u := 0; u < n; u++ {
			for i := topo.off[u]; i < topo.off[u+1]; i++ {
				v := int(topo.to[i])
				if v <= u {
					continue // each undirected edge once
				}
				logp += math.Log(edgePotential(topo.agree[i], state[u] == state[v]))
			}
		}
		w := math.Exp(logp)
		z += w
		for i := 0; i < n; i++ {
			if state[i] {
				upMass[i] += w
			}
		}
	}
	if z <= 0 {
		return nil, fmt.Errorf("mrf: exact inference found zero total mass")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = upMass[i] / z
	}
	return &Result{PUp: out}, nil
}

// EngineNames lists the names NewEngine accepts, in help-text order.
func EngineNames() []string {
	return []string{"bp", "jacobi", "exact", "prior"}
}

// NewEngine returns the trend-inference engine registered under name. The
// message-passing engines (bp, jacobi) take their parameters from cfg; the
// oracle and the lower bound (exact, prior) use their zero-value defaults.
// Tests and comparison harnesses use it to build engines by name.
func NewEngine(name string, cfg BPConfig) (Engine, error) {
	switch name {
	case "bp":
		return NewBP(cfg)
	case "jacobi":
		return NewJacobi(cfg)
	case "exact":
		return Exact{}, nil
	case "prior":
		return PriorOnly{}, nil
	}
	return nil, fmt.Errorf("mrf: unknown engine %q (want one of %v)", name, EngineNames())
}
