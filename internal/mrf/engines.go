package mrf

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/roadnet"
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

// Infer implements Engine. ctx is polled every cancelCheckMasks assignments;
// a non-nil warm is counted as a warm-start miss (enumeration has no
// iterative state to seed).
func (e Exact) Infer(ctx context.Context, m *Model, evidence []Evidence, warm *Beliefs) (*Result, error) {
	if warm != nil {
		warmStartMisses.Inc()
	}
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
	g := m.graph
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
			for _, edge := range g.Neighbors(roadnet.RoadID(u)) {
				if int(edge.To) <= u {
					continue // each undirected edge once
				}
				logp += math.Log(edgePotential(m.agreement(edge.Agreement), state[u] == state[edge.To]))
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

// localConditional returns the unnormalised log-probabilities of road u
// being up and down given its prior and its neighbours' current states: the
// local conditional ICM maximises and Gibbs samples from.
func localConditional(m *Model, state []bool, u int) (logUp, logDown float64) {
	logUp = math.Log(clamp01(m.prior[u]))
	logDown = math.Log(clamp01(1 - m.prior[u]))
	for _, e := range m.graph.Neighbors(roadnet.RoadID(u)) {
		a := m.agreement(e.Agreement)
		logUp += math.Log(edgePotential(a, state[e.To]))
		logDown += math.Log(edgePotential(a, !state[e.To]))
	}
	return logUp, logDown
}

// ICM is iterated conditional modes: greedy coordinate-wise MAP refinement
// starting from the prior assignment. It returns hard labels encoded as
// probabilities pushed to the model's clipping bounds, and is the fastest
// (and crudest) engine.
type ICM struct {
	// MaxSweeps bounds the full passes over all nodes (default 20).
	MaxSweeps int
}

// Name implements Engine.
func (ICM) Name() string { return "icm" }

// Infer implements Engine. ctx is polled once per sweep; a non-nil warm is
// counted as a warm-start miss (ICM starts from the prior MAP assignment,
// not message state).
func (ic ICM) Infer(ctx context.Context, m *Model, evidence []Evidence, warm *Beliefs) (*Result, error) {
	if warm != nil {
		warmStartMisses.Inc()
	}
	sweeps := ic.MaxSweeps
	if sweeps == 0 {
		sweeps = 20
	}
	ev, err := evidenceMap(m, evidence)
	if err != nil {
		return nil, err
	}
	n := m.NumRoads()
	state := make([]bool, n)
	for i := 0; i < n; i++ {
		switch ev[i] {
		case 1:
			state[i] = true
		case 0:
			state[i] = false
		default:
			state[i] = m.prior[i] >= 0.5
		}
	}
	for sweep := 0; sweep < sweeps; sweep++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("mrf: icm interrupted at sweep %d: %w", sweep, err)
		}
		changed := false
		for u := 0; u < n; u++ {
			if ev[u] != -1 {
				continue
			}
			logUp, logDown := localConditional(m, state, u)
			best := logUp >= logDown
			if best != state[u] {
				state[u] = best
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		switch {
		case ev[i] == 1:
			out[i] = 1
		case ev[i] == 0:
			out[i] = 0
		case state[i]:
			out[i] = 0.999
		default:
			out[i] = 0.001
		}
	}
	return &Result{PUp: out}, nil
}

// Gibbs estimates marginals by single-site Gibbs sampling.
type Gibbs struct {
	// Burn is the number of discarded warm-up sweeps (default 50).
	Burn int
	// Samples is the number of retained sweeps (default 200).
	Samples int
	// Seed drives the sampler; the engine is deterministic for a seed.
	Seed int64
}

// Name implements Engine.
func (Gibbs) Name() string { return "gibbs" }

// Infer implements Engine. ctx is polled once per sweep; a non-nil warm is
// counted as a warm-start miss (the chain is seeded from the prior, not
// message state).
func (gb Gibbs) Infer(ctx context.Context, m *Model, evidence []Evidence, warm *Beliefs) (*Result, error) {
	if warm != nil {
		warmStartMisses.Inc()
	}
	burn, samples := gb.Burn, gb.Samples
	if burn == 0 {
		burn = 50
	}
	if samples == 0 {
		samples = 200
	}
	ev, err := evidenceMap(m, evidence)
	if err != nil {
		return nil, err
	}
	n := m.NumRoads()
	rng := rand.New(rand.NewSource(gb.Seed + 1))
	state := make([]bool, n)
	for i := 0; i < n; i++ {
		switch ev[i] {
		case 1:
			state[i] = true
		case 0:
			state[i] = false
		default:
			state[i] = rng.Float64() < m.prior[i]
		}
	}
	upCount := make([]int, n)
	for sweep := 0; sweep < burn+samples; sweep++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("mrf: gibbs interrupted at sweep %d: %w", sweep, err)
		}
		for u := 0; u < n; u++ {
			if ev[u] != -1 {
				continue
			}
			state[u] = rng.Float64() < probUp(localConditional(m, state, u))
		}
		if sweep >= burn {
			for u := 0; u < n; u++ {
				if state[u] {
					upCount[u]++
				}
			}
		}
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		switch ev[i] {
		case 1:
			out[i] = 1
		case 0:
			out[i] = 0
		default:
			out[i] = float64(upCount[i]) / float64(samples)
		}
	}
	return &Result{PUp: out}, nil
}

// EngineNames lists the names NewEngine accepts, in help-text order.
func EngineNames() []string {
	return []string{"bp", "fastbp", "icm", "gibbs", "exact", "prior"}
}

// NewEngine returns the trend-inference engine registered under name. The
// message-passing engines (bp, fastbp) take their parameters from cfg; the
// ablation engines (icm, gibbs, exact, prior) use their zero-value defaults.
// It is the single construction point for operator-facing engine selection
// (speedserver -engine, benchrunner sweeps).
func NewEngine(name string, cfg BPConfig) (Engine, error) {
	switch name {
	case "bp":
		return NewBP(cfg)
	case "fastbp":
		return NewFastBP(cfg)
	case "icm":
		return ICM{}, nil
	case "gibbs":
		return Gibbs{}, nil
	case "exact":
		return Exact{}, nil
	case "prior":
		return PriorOnly{}, nil
	}
	return nil, fmt.Errorf("mrf: unknown engine %q (want one of %v)", name, EngineNames())
}
