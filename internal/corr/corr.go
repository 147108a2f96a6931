// Package corr builds the road correlation graph at the heart of the paper:
// an edge joins two roads whose traffic *trends* (up/down relative to their
// own historical averages) agree in a sufficiently large fraction of
// co-observed history slots. The graph is consumed by the trend MRF
// (internal/mrf), the hierarchical linear model (internal/hlm) and seed
// selection (internal/seedsel).
package corr

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/history"
	"repro/internal/roadnet"
)

// Edge is a directed copy of an undirected correlation edge; every edge
// appears in both endpoints' neighbour lists.
type Edge struct {
	To roadnet.RoadID
	// Agreement is the Laplace-smoothed probability that the two roads'
	// trends are equal, in (0, 1); edges only exist with Agreement above the
	// build threshold, so in practice > 0.5.
	Agreement float64
	// RelCorr is the Pearson correlation of the two roads' relative speeds
	// over co-observed slots; used to weight regression neighbours.
	RelCorr float64
	// N is the number of co-observed slots behind the estimate.
	N int
}

// Config parameterises graph construction.
type Config struct {
	// MaxHops bounds candidate pairs to roads within this many hops in the
	// road-adjacency graph (the paper's insight is spatial: correlated roads
	// are nearby).
	MaxHops int
	// MinAgreement is the τ threshold; pairs agreeing less often are not
	// connected.
	MinAgreement float64
	// MinCoObserved is the minimum number of co-observed slots for an edge
	// to be trusted.
	MinCoObserved int
	// MaxNeighbors caps each road's neighbour list, keeping the strongest
	// edges (0 = unlimited). The final graph keeps an edge if either
	// endpoint ranks it within its cap, preserving symmetry.
	MaxNeighbors int
}

// DefaultConfig returns the thresholds used by the experiments.
func DefaultConfig() Config {
	return Config{MaxHops: 2, MinAgreement: 0.65, MinCoObserved: 24, MaxNeighbors: 8}
}

// Validate rejects unusable configurations.
func (c *Config) Validate() error {
	if c.MaxHops < 1 {
		return fmt.Errorf("corr: MaxHops must be ≥ 1, got %d", c.MaxHops)
	}
	if c.MinAgreement < 0.5 || c.MinAgreement >= 1 {
		return fmt.Errorf("corr: MinAgreement must be in [0.5, 1), got %v", c.MinAgreement)
	}
	if c.MinCoObserved < 1 {
		return fmt.Errorf("corr: MinCoObserved must be ≥ 1, got %d", c.MinCoObserved)
	}
	if c.MaxNeighbors < 0 {
		return fmt.Errorf("corr: MaxNeighbors must be ≥ 0, got %d", c.MaxNeighbors)
	}
	return nil
}

// Graph is the immutable correlation graph. Node IDs coincide with road IDs.
type Graph struct {
	edges [][]Edge
	// raw holds the pre-prune neighbour lists (every pair that cleared the
	// agreement thresholds, before MaxNeighbors truncation). Rescore needs
	// them because pruning is a *global* rank decision: re-scoring a single
	// pair can change which of its endpoints' other edges survive, and that
	// can only be replayed from the unpruned lists. When no pruning applied,
	// raw and edges are the same slices.
	raw [][]Edge
}

// NumRoads returns the number of nodes.
func (g *Graph) NumRoads() int { return len(g.edges) }

// Neighbors returns road id's correlation neighbours sorted by descending
// Agreement; callers must not modify the slice.
func (g *Graph) Neighbors(id roadnet.RoadID) []Edge { return g.edges[id] }

// Degree returns the number of correlation neighbours of id.
func (g *Graph) Degree(id roadnet.RoadID) int { return len(g.edges[id]) }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int {
	var total int
	for _, es := range g.edges {
		total += len(es)
	}
	return total / 2
}

// MeanDegree returns the average number of neighbours per road.
func (g *Graph) MeanDegree() float64 {
	if len(g.edges) == 0 {
		return 0
	}
	var total int
	for _, es := range g.edges {
		total += len(es)
	}
	return float64(total) / float64(len(g.edges))
}

// EdgeSpec declares one undirected edge for NewGraph.
type EdgeSpec struct {
	U, V      roadnet.RoadID
	Agreement float64
	RelCorr   float64
	N         int
}

// NewGraph builds a correlation graph from explicit edges; used by tests and
// by callers with externally estimated correlations.
func NewGraph(numRoads int, edges []EdgeSpec) (*Graph, error) {
	g := &Graph{edges: make([][]Edge, numRoads)}
	seen := make(map[[2]roadnet.RoadID]bool, len(edges))
	for _, e := range edges {
		if int(e.U) < 0 || int(e.U) >= numRoads || int(e.V) < 0 || int(e.V) >= numRoads {
			return nil, fmt.Errorf("corr: edge %d-%d out of range [0,%d)", e.U, e.V, numRoads)
		}
		if e.U == e.V {
			return nil, fmt.Errorf("corr: self-edge at road %d", e.U)
		}
		if !(e.Agreement > 0 && e.Agreement < 1) { // false for NaN too
			return nil, fmt.Errorf("corr: edge %d-%d agreement %v outside (0,1)", e.U, e.V, e.Agreement)
		}
		key := [2]roadnet.RoadID{e.U, e.V}
		if e.U > e.V {
			key = [2]roadnet.RoadID{e.V, e.U}
		}
		if seen[key] {
			return nil, fmt.Errorf("corr: duplicate edge %d-%d", e.U, e.V)
		}
		seen[key] = true
		g.edges[e.U] = append(g.edges[e.U], Edge{To: e.V, Agreement: e.Agreement, RelCorr: e.RelCorr, N: e.N})
		g.edges[e.V] = append(g.edges[e.V], Edge{To: e.U, Agreement: e.Agreement, RelCorr: e.RelCorr, N: e.N})
	}
	for i := range g.edges {
		sortEdges(g.edges[i])
	}
	g.raw = g.edges
	return g, nil
}

// Build estimates the correlation graph from history. The network provides
// the spatial candidate structure; the history provides the trend series.
func Build(net *roadnet.Network, db *history.DB, cfg Config) (*Graph, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if net.NumRoads() != db.NumRoads() {
		return nil, fmt.Errorf("corr: network has %d roads but history covers %d", net.NumRoads(), db.NumRoads())
	}
	n := net.NumRoads()

	type scored struct {
		u, v roadnet.RoadID
		e    Edge // from u's perspective; To == v
	}
	var accepted []scored

	// Enumerate candidate pairs (u < v within MaxHops) via bounded BFS from
	// each road.
	visitBuf := make([]int, n)
	for i := range visitBuf {
		visitBuf[i] = -1
	}
	var queue []roadnet.RoadID
	for u := 0; u < n; u++ {
		uid := roadnet.RoadID(u)
		queue = queue[:0]
		queue = append(queue, uid)
		visitBuf[u] = 0
		reached := []roadnet.RoadID{uid}
		for qi := 0; qi < len(queue); qi++ {
			cur := queue[qi]
			if visitBuf[cur] >= cfg.MaxHops {
				continue
			}
			for _, nb := range net.Adjacent(cur) {
				if visitBuf[nb] == -1 {
					visitBuf[nb] = visitBuf[cur] + 1
					queue = append(queue, nb)
					reached = append(reached, nb)
				}
			}
		}
		for _, v := range reached {
			if v <= uid {
				continue // handle each unordered pair once
			}
			if e, ok := scorePair(db, uid, v, cfg); ok {
				accepted = append(accepted, scored{u: uid, v: v, e: e})
			}
		}
		for _, r := range reached { // reset scratch
			visitBuf[r] = -1
		}
	}

	raw := make([][]Edge, n)
	for _, s := range accepted {
		raw[s.u] = append(raw[s.u], s.e)
		back := s.e
		back.To = s.u
		raw[s.v] = append(raw[s.v], back)
	}
	for i := range raw {
		sortEdges(raw[i])
	}
	g := &Graph{edges: raw, raw: raw}
	if cfg.MaxNeighbors > 0 {
		g.edges = pruneToTopK(raw, cfg.MaxNeighbors)
	}
	return g, nil
}

// scorePair computes the trend agreement and relative-speed correlation of a
// pair, returning ok=false when the pair does not qualify for an edge. The
// thresholds are decided from the history's co-observation counts; only a
// qualifying pair reads its samples for the correlation sums.
func scorePair(db *history.DB, u, v roadnet.RoadID, cfg Config) (Edge, bool) {
	n, agree := db.CoCounts(u, v)
	if n < cfg.MinCoObserved {
		return Edge{}, false
	}
	agreement := (float64(agree) + 1) / (float64(n) + 2)
	if agreement < cfg.MinAgreement {
		return Edge{}, false
	}
	var sumU, sumV, sumUU, sumVV, sumUV float64
	db.CoObserved(u, v, func(_ int32, relU, relV float32) {
		x, y := float64(relU), float64(relV)
		sumU += x
		sumV += y
		sumUU += x * x
		sumVV += y * y
		sumUV += x * y
	})
	fn := float64(n)
	cov := sumUV/fn - (sumU/fn)*(sumV/fn)
	varU := sumUU/fn - (sumU/fn)*(sumU/fn)
	varV := sumVV/fn - (sumV/fn)*(sumV/fn)
	var relCorr float64
	if varU > 1e-12 && varV > 1e-12 {
		relCorr = cov / math.Sqrt(varU*varV)
	}
	return Edge{To: v, Agreement: agreement, RelCorr: relCorr, N: n}, true
}

func sortEdges(es []Edge) {
	sort.Slice(es, func(i, j int) bool {
		//lint:ignore floateq sort tie-break: exact equality falls through to the ID order, an epsilon would break strict weak ordering
		if es[i].Agreement != es[j].Agreement {
			return es[i].Agreement > es[j].Agreement
		}
		return es[i].To < es[j].To
	})
}

// pruneToTopK returns fresh neighbour lists keeping an edge when either
// endpoint ranks it within its top k by agreement, preserving symmetry. The
// input lists (each sorted by sortEdges) are left untouched: they are the
// graph's raw view, which Rescore replays pruning from.
func pruneToTopK(raw [][]Edge, k int) [][]Edge {
	type pair struct{ a, b roadnet.RoadID }
	keep := make(map[pair]bool)
	key := func(a, b roadnet.RoadID) pair {
		if a > b {
			a, b = b, a
		}
		return pair{a, b}
	}
	for u := range raw {
		for rank, e := range raw[u] {
			if rank < k {
				keep[key(roadnet.RoadID(u), e.To)] = true
			}
		}
	}
	pruned := make([][]Edge, len(raw))
	for u := range raw {
		var kept []Edge
		for _, e := range raw[u] {
			if keep[key(roadnet.RoadID(u), e.To)] {
				kept = append(kept, e)
			}
		}
		pruned[u] = kept
	}
	return pruned
}
