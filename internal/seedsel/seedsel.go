// Package seedsel implements the paper's seed-selection problem: given a
// budget K, choose the K roads whose crowdsourced speeds let the inference
// step estimate the rest of the network best.
//
// # Formulation
//
// Each road s exerts an influence inf(s → r) ∈ [0, 1] on every road r,
// derived from the correlation graph: the strongest correlation path from s
// to r, where an edge with trend agreement a contributes factor 2a−1 (the
// information an observation carries beyond chance) and paths are cut off at
// MaxHops. The benefit of a seed set S is expected weighted coverage,
//
//	B(S) = Σ_r w_r · (1 − Π_{s∈S} (1 − inf(s → r))),
//
// where w_r weights roads by importance (class) and historical volatility.
//
// # Hardness and guarantees
//
// Maximising B subject to |S| = K is NP-hard: with 0/1 influences and unit
// weights it is exactly Maximum Coverage (each road covers the set of roads
// it influences), which is NP-hard and inapproximable beyond 1−1/e unless
// P = NP. B is monotone (adding a seed never decreases any factor
// 1 − Π(1 − inf)) and submodular (the marginal gain of s given S is
// Σ_r w_r·inf(s→r)·Π_{t∈S}(1−inf(t→r)), non-increasing in S), so the greedy
// algorithm achieves the optimal (1−1/e) ≈ 0.63 approximation
// [Nemhauser–Wolsey–Fisher]. Lazy greedy (CELF) exploits submodularity to
// skip stale gain evaluations and returns exactly the greedy set orders of
// magnitude faster — the paper's efficiency headline.
package seedsel

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/corr"
	"repro/internal/history"
	"repro/internal/roadnet"
)

// Config parameterises the influence model.
type Config struct {
	// MaxHops bounds influence propagation along correlation paths.
	MaxHops int
	// MinInfluence prunes influence entries below this threshold, bounding
	// memory and time.
	MinInfluence float64
}

// DefaultConfig returns the influence model used by the experiments.
func DefaultConfig() Config {
	return Config{MaxHops: 3, MinInfluence: 0.02}
}

// Validate rejects unusable configurations.
func (c *Config) Validate() error {
	if c.MaxHops < 1 {
		return fmt.Errorf("seedsel: MaxHops must be ≥ 1, got %d", c.MaxHops)
	}
	if c.MinInfluence <= 0 || c.MinInfluence >= 1 {
		return fmt.Errorf("seedsel: MinInfluence must be in (0,1), got %v", c.MinInfluence)
	}
	return nil
}

// infEntry is one (target road, influence) pair in a seed's influence list.
type infEntry struct {
	road roadnet.RoadID
	inf  float64
}

// Problem is a prepared seed-selection instance: influence lists and weights
// are precomputed so selectors only combine them.
type Problem struct {
	weights []float64
	infl    [][]infEntry // per candidate seed, sorted by road ID
	graph   *corr.Graph
}

// NewProblem precomputes influence lists over the correlation graph.
// weights[r] is road r's importance; len(weights) must match the graph.
func NewProblem(g *corr.Graph, weights []float64, cfg Config) (*Problem, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(weights) != g.NumRoads() {
		return nil, fmt.Errorf("seedsel: %d weights for %d roads", len(weights), g.NumRoads())
	}
	for r, w := range weights {
		if w < 0 || math.IsNaN(w) {
			return nil, fmt.Errorf("seedsel: invalid weight %v for road %d", w, r)
		}
	}
	n := g.NumRoads()
	p := &Problem{weights: weights, infl: make([][]infEntry, n), graph: g}
	// Best-path influence via bounded Dijkstra on -log(influence); with ≤
	// MaxHops hops a simple label-correcting BFS over hop layers is simpler
	// and exact: best[h][r] = max over ≤h-hop paths.
	best := make([]float64, n)
	hops := make([]int, n)
	for s := 0; s < n; s++ {
		sid := roadnet.RoadID(s)
		frontier := []roadnet.RoadID{sid}
		touched := []roadnet.RoadID{sid}
		best[s] = 1
		hops[s] = 0
		for len(frontier) > 0 {
			var next []roadnet.RoadID
			for _, u := range frontier {
				if hops[u] >= cfg.MaxHops {
					continue
				}
				for _, e := range g.Neighbors(u) {
					f := best[u] * edgeInfluence(e.Agreement)
					if f < cfg.MinInfluence {
						continue
					}
					//lint:ignore floateq exact zero marks an unvisited node; reachable influences are at least MinInfluence > 0
					if best[e.To] == 0 {
						touched = append(touched, e.To)
						hops[e.To] = hops[u] + 1
						best[e.To] = f
						next = append(next, e.To)
					} else if f > best[e.To] {
						best[e.To] = f
						hops[e.To] = hops[u] + 1
						next = append(next, e.To)
					}
				}
			}
			frontier = next
		}
		list := make([]infEntry, 0, len(touched))
		for _, r := range touched {
			list = append(list, infEntry{road: r, inf: best[r]})
			best[r] = 0
			hops[r] = 0
		}
		sort.Slice(list, func(i, j int) bool { return list[i].road < list[j].road })
		p.infl[s] = list
	}
	return p, nil
}

// edgeInfluence maps a trend-agreement probability to the information an
// observation transfers across the edge: 2a−1, the excess over coin-flip
// agreement.
func edgeInfluence(a float64) float64 {
	f := 2*a - 1
	if f < 0 {
		return 0
	}
	return f
}

// NumRoads returns the instance size.
func (p *Problem) NumRoads() int { return len(p.weights) }

// Weights returns the road weights; callers must not modify the slice.
func (p *Problem) Weights() []float64 { return p.weights }

// InfluenceSize returns the length of road s's influence list (diagnostics).
func (p *Problem) InfluenceSize(s roadnet.RoadID) int { return len(p.infl[s]) }

// Benefit evaluates B(S) exactly.
func (p *Problem) Benefit(seeds []roadnet.RoadID) float64 {
	uncovered := p.newUncovered()
	for _, s := range seeds {
		p.apply(uncovered, s)
	}
	var total float64
	for r, q := range uncovered {
		total += p.weights[r] * (1 - q)
	}
	return total
}

// newUncovered returns the initial "probability not covered" vector (all 1).
func (p *Problem) newUncovered() []float64 {
	q := make([]float64, len(p.weights))
	for i := range q {
		q[i] = 1
	}
	return q
}

// gain returns the marginal benefit of adding s given the uncovered vector.
func (p *Problem) gain(uncovered []float64, s roadnet.RoadID) float64 {
	var g float64
	for _, e := range p.infl[s] {
		g += p.weights[e.road] * uncovered[e.road] * e.inf
	}
	return g
}

// apply updates the uncovered vector for a newly selected seed s.
func (p *Problem) apply(uncovered []float64, s roadnet.RoadID) {
	for _, e := range p.infl[s] {
		uncovered[e.road] *= 1 - e.inf
	}
}

// validateK checks the budget against the instance.
func (p *Problem) validateK(k int) error {
	if k < 1 || k > p.NumRoads() {
		return fmt.Errorf("seedsel: budget %d outside [1, %d]", k, p.NumRoads())
	}
	return nil
}

// BenefitWeights derives the experiment's road weights: class importance
// scaled by historical volatility (std/mean), so hard-to-predict important
// roads matter most. Roads without history get the minimum positive weight.
func BenefitWeights(net *roadnet.Network, db *history.DB) []float64 {
	n := net.NumRoads()
	out := make([]float64, n)
	for r := 0; r < n; r++ {
		id := roadnet.RoadID(r)
		w := net.Road(id).Class.ImportanceWeight()
		mean, okM := db.Mean(id, 0)
		// Volatility across the whole series, not just one class.
		var sumSq float64
		rels := db.Rels(id)
		for _, rel := range rels {
			d := float64(rel) - 1
			sumSq += d * d
		}
		if okM && mean > 0 && len(rels) > 1 {
			vol := math.Sqrt(sumSq / float64(len(rels)))
			w *= 0.5 + vol // volatility floor keeps stable roads relevant
		} else {
			w *= 0.5
		}
		out[r] = w
	}
	return out
}
