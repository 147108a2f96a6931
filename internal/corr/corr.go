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
// appears in both endpoints' neighbour lists. It is 16 bytes: the two
// 4-byte fields share one word ahead of the agreement. The trend MRF weighs
// its pairwise potential by Agreement, and the HLM and seed selection rank
// a road's neighbours by it.
type Edge struct {
	To roadnet.RoadID
	// N is the number of co-observed slots behind the estimate.
	N int32
	// Agreement is the Laplace-smoothed probability that the two roads'
	// trends are equal, in (0, 1); edges only exist with Agreement above the
	// build threshold, so in practice > 0.5.
	Agreement float64
}

// Graph construction's fixed limits.
const (
	// maxHops bounds candidate pairs to roads within this many hops in the
	// road-adjacency graph (the paper's insight is spatial: correlated roads
	// are nearby).
	maxHops = 2
	// minCoObserved is the minimum number of co-observed slots for an edge
	// to be trusted.
	minCoObserved = 24
	// maxNeighbors caps each road's neighbour list, keeping the strongest
	// edges. The graph keeps an edge if either endpoint ranks it within its
	// cap, preserving symmetry.
	maxNeighbors = 8
)

// Config parameterises graph construction.
type Config struct {
	// MinAgreement is the τ threshold; pairs agreeing less often are not
	// connected.
	MinAgreement float64
}

// DefaultConfig returns the thresholds used by the experiments.
func DefaultConfig() Config {
	return Config{MinAgreement: 0.65}
}

// Validate rejects unusable configurations.
func (c *Config) Validate() error {
	if c.MinAgreement < 0.5 || c.MinAgreement >= 1 {
		return fmt.Errorf("corr: MinAgreement must be in [0.5, 1), got %v", c.MinAgreement)
	}
	return nil
}

// Graph is the immutable correlation graph. Node IDs coincide with road IDs.
// It holds the pruned neighbour lists alone, each at exact capacity.
type Graph struct {
	edges [][]Edge
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
	N         int32
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
		g.edges[e.U] = append(g.edges[e.U], Edge{To: e.V, Agreement: e.Agreement, N: e.N})
		g.edges[e.V] = append(g.edges[e.V], Edge{To: e.U, Agreement: e.Agreement, N: e.N})
	}
	for i := range g.edges {
		sortEdges(g.edges[i])
	}
	return g, nil
}

// Build estimates the correlation graph from history. The network provides
// the spatial candidate structure; the history provides the trend series.
// A bounded BFS from each road scores every pair within maxHops once, from
// the pair's lower endpoint. Each list is counted before it is allocated at
// exact capacity, then sorted by sortEdges and pruned by pruneToTopK.
func Build(net *roadnet.Network, db *history.DB, cfg Config) (*Graph, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := net.NumRoads()
	if db.NumRoads() != n {
		return nil, fmt.Errorf("corr: %d-road network and %d-road history", n, db.NumRoads())
	}
	type scored struct {
		u roadnet.RoadID
		e Edge // from u's side; u < e.To
	}
	var accepted []scored
	size := make([]int, n)
	hops := make([]int, n)
	for i := range hops {
		hops[i] = -1
	}
	var reached []roadnet.RoadID // the BFS queue, kept whole
	for i := range n {
		u := roadnet.RoadID(i)
		reached = append(reached[:0], u)
		hops[u] = 0
		for qi := 0; qi < len(reached); qi++ {
			cur := reached[qi]
			if hops[cur] >= maxHops {
				continue
			}
			for _, nb := range net.Adjacent(cur) {
				if hops[nb] == -1 {
					hops[nb] = hops[cur] + 1
					reached = append(reached, nb)
				}
			}
		}
		for _, v := range reached {
			if v <= u {
				continue
			}
			if e, ok := scorePair(db, u, v, cfg); ok {
				accepted = append(accepted, scored{u: u, e: e})
				size[u]++
				size[v]++
			}
		}
		for _, r := range reached { // reset scratch
			hops[r] = -1
		}
	}

	edges := make([][]Edge, n)
	for u, k := range size {
		if k > 0 {
			edges[u] = make([]Edge, 0, k)
		}
	}
	for _, s := range accepted {
		edges[s.u] = append(edges[s.u], s.e)
		back := s.e
		back.To = s.u
		edges[s.e.To] = append(edges[s.e.To], back)
	}
	for _, es := range edges {
		sortEdges(es)
	}
	pruneToTopK(edges, maxNeighbors)
	return &Graph{edges: edges}, nil
}

// scorePair computes the trend agreement of a pair from the history's
// co-observation counts, which it reads from the slot bitmaps without
// touching a sample, returning ok=false when the pair does not qualify for
// an edge.
func scorePair(db *history.DB, u, v roadnet.RoadID, cfg Config) (Edge, bool) {
	n, agree := db.CoCounts(u, v)
	if n < minCoObserved {
		return Edge{}, false
	}
	agreement := (float64(agree) + 1) / (float64(n) + 2)
	if agreement < cfg.MinAgreement {
		return Edge{}, false
	}
	// n counts slots below 2³¹, so it overflows an int32 only when both
	// roads hold every one of them.
	return Edge{To: v, N: int32(min(n, math.MaxInt32)), Agreement: agreement}, true
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

// pruneToTopK prunes the neighbour lists (each sorted by sortEdges) in
// place, keeping an edge when either endpoint ranks it within its top k by
// agreement, preserving symmetry. A list that loses no edge stays as it is;
// every other is replaced by a fresh list of exact capacity. A list's first
// k entries are always kept, so the ranks read off a replaced list are
// those of the list it replaced.
func pruneToTopK(lists [][]Edge, k int) {
	// ranks reports whether v ranks its edge to u within its top k.
	ranks := func(v, u roadnet.RoadID) bool {
		for _, e := range lists[v][:min(k, len(lists[v]))] {
			if e.To == u {
				return true
			}
		}
		return false
	}
	for u, es := range lists {
		id := roadnet.RoadID(u)
		kept := min(k, len(es))
		for _, e := range es[kept:] {
			if ranks(e.To, id) {
				kept++
			}
		}
		if kept == len(es) {
			continue
		}
		list := append(make([]Edge, 0, kept), es[:k]...)
		for _, e := range es[k:] {
			if ranks(e.To, id) {
				list = append(list, e)
			}
		}
		lists[u] = list
	}
}
