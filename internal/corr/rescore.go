package corr

import (
	"fmt"

	"repro/internal/history"
	"repro/internal/roadnet"
)

// Rescore builds the correlation graph for an updated history by re-scoring
// only the pairs incident to dirty roads — the roads whose aggregates (and
// therefore whose whole relative-speed series) changed since g was built.
// It is the delta path of Build, and Build is its degenerate case: the
// rescore of every road over an edgeless graph. The two produce equal
// graphs whenever
//
//   - db differs from the history g was built from only on the dirty roads
//     (history.Builder.Dirty reports exactly this set), and
//   - cfg is the configuration g was built with.
//
// The equivalence is exact, not approximate: an edge between two clean
// roads depends only on those two roads' series, so it is reused verbatim;
// every pair with a dirty endpoint lies within maxHops of a dirty road and
// is re-scored with the same scorePair; each touched list is re-sorted by
// sortEdges, a total order, so the order pairs are scored in does not
// matter; and the MaxNeighbors pruning — a global rank decision — is
// replayed over the merged pre-prune lists rather than patched locally.
//
// Cost is proportional to the delta: a bounded BFS per dirty road, one
// scorePair per candidate pair, and an O(edges) pruning sweep. g is not
// modified; untouched roads share their edge slices with it.
func Rescore(g *Graph, net *roadnet.Network, db *history.DB, dirty []roadnet.RoadID, cfg Config) (*Graph, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := g.NumRoads()
	if net.NumRoads() != n || db.NumRoads() != n {
		return nil, fmt.Errorf("corr: %d-road graph over a %d-road network and a %d-road history", n, net.NumRoads(), db.NumRoads())
	}
	if g.raw == nil {
		return nil, fmt.Errorf("corr: graph carries no pre-prune edge lists; rebuild it with Build or NewGraph")
	}
	dirtySet := make([]bool, n)
	for _, d := range dirty {
		if int(d) < 0 || int(d) >= n {
			return nil, fmt.Errorf("corr: dirty road %d out of range [0,%d)", d, n)
		}
		dirtySet[d] = true
	}
	if len(dirty) == 0 {
		return g, nil
	}

	// Score every unordered pair with a dirty endpoint within maxHops:
	// exactly the candidate pairs whose score may have changed. BFS from
	// each dirty road; a pair of two dirty roads is scored once, from its
	// lower endpoint.
	type scored struct {
		u roadnet.RoadID
		e Edge // from u's side; u < e.To
	}
	var accepted []scored
	touched := make([]bool, n) // roads whose raw list may change
	visitBuf := make([]int, n)
	for i := range visitBuf {
		visitBuf[i] = -1
	}
	var queue, reached []roadnet.RoadID
	for _, d := range dirty {
		touched[d] = true
		queue = append(queue[:0], d)
		reached = append(reached[:0], d)
		visitBuf[d] = 0
		for qi := 0; qi < len(queue); qi++ {
			cur := queue[qi]
			if visitBuf[cur] >= maxHops {
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
			if v == d || (dirtySet[v] && v < d) {
				continue
			}
			touched[v] = true
			u, w := min(d, v), max(d, v)
			if e, ok := scorePair(db, u, w, cfg); ok {
				accepted = append(accepted, scored{u: u, e: e})
			}
		}
		for _, r := range reached { // reset scratch
			visitBuf[r] = -1
		}
	}

	// Rebuild the touched roads' pre-prune lists: keep their clean-clean
	// edges (unchanged by construction), drop every dirty-incident edge, and
	// add the candidate pairs that qualify under the new history. Each list
	// is counted first, so it is allocated once at exact capacity.
	size := make([]int, n)
	for _, s := range accepted {
		size[s.u]++
		size[s.e.To]++
	}
	keep := func(u int, e Edge) bool { return !dirtySet[u] && !dirtySet[e.To] }
	raw := make([][]Edge, n)
	copy(raw, g.raw)
	for u := range touched {
		if !touched[u] {
			continue
		}
		for _, e := range g.raw[u] {
			if keep(u, e) {
				size[u]++
			}
		}
		raw[u] = nil
		if size[u] > 0 {
			raw[u] = make([]Edge, 0, size[u])
		}
		for _, e := range g.raw[u] {
			if keep(u, e) {
				raw[u] = append(raw[u], e)
			}
		}
	}
	for _, s := range accepted {
		raw[s.u] = append(raw[s.u], s.e)
		back := s.e
		back.To = s.u
		raw[s.e.To] = append(raw[s.e.To], back)
	}
	for u := range touched {
		if touched[u] {
			sortEdges(raw[u])
		}
	}

	out := &Graph{edges: raw, raw: raw}
	if cfg.MaxNeighbors > 0 {
		out.edges = pruneToTopK(raw, cfg.MaxNeighbors)
	}
	return out, nil
}
