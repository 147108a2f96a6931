package mrf

import (
	"fmt"

	"repro/internal/corr"
	"repro/internal/roadnet"
)

// Topology is the precomputed message-passing structure of a correlation
// graph: the directed edges in CSR layout plus, per directed edge, its
// tempered agreement and the index of its reverse edge. Building it costs
// O(E·deg), but the correlation graph is immutable, so a Topology is
// computed once (core builds it with each view) and shared read-only by
// every model, and so every inference run, over that graph.
type Topology struct {
	// off[u]..off[u+1] delimit node u's incoming-message slots; slot i holds
	// the message from neighbour to[i] into u.
	off []int32
	// to[i] is the neighbour on the other end of directed edge i.
	to []int32
	// agree[i] is the edge's tempered agreement 0.5 + (a − 0.5)·temper: the
	// value every engine's edge potential reads.
	agree []float64
	// rev[i] is the index of the reverse directed edge: the slot where a
	// message *from* the owner of slot i is delivered to to[i].
	rev []int32
}

// NewTopology builds the message-passing structure for a correlation graph,
// scaling every edge potential's pull toward agreement by temper:
// a' = 0.5 + (a − 0.5)·temper for temper in (0, 1]. Loopy graphs
// double-count evidence around cycles, making marginals overconfident;
// tempering the edges compensates, and temper 1 leaves the potentials
// untouched. It fails on a temper outside (0, 1] and if the graph is not
// symmetric (every edge must appear in both endpoints' neighbour lists).
func NewTopology(g *corr.Graph, temper float64) (*Topology, error) {
	if !(temper > 0 && temper <= 1) {
		return nil, fmt.Errorf("mrf: edge temper must be in (0, 1], got %v", temper)
	}
	n := g.NumRoads()
	t := &Topology{off: make([]int32, n+1)}
	total := 0
	for u := 0; u < n; u++ {
		total += g.Degree(roadnet.RoadID(u))
		t.off[u+1] = int32(total)
	}
	t.to = make([]int32, total)
	t.agree = make([]float64, total)
	t.rev = make([]int32, total)
	for u := 0; u < n; u++ {
		base := t.off[u]
		for k, e := range g.Neighbors(roadnet.RoadID(u)) {
			t.to[base+int32(k)] = int32(e.To)
			t.agree[base+int32(k)] = 0.5 + (e.Agreement-0.5)*temper
		}
	}
	for u := 0; u < n; u++ {
		for i := t.off[u]; i < t.off[u+1]; i++ {
			v := t.to[i]
			rev := int32(-1)
			for j := t.off[v]; j < t.off[v+1]; j++ {
				if t.to[j] == int32(u) {
					rev = j
					break
				}
			}
			if rev < 0 {
				return nil, fmt.Errorf("mrf: correlation graph is not symmetric at edge %d-%d", u, v)
			}
			t.rev[i] = rev
		}
	}
	return t, nil
}

// NumDirectedEdges returns the number of directed edges (message slots).
func (t *Topology) NumDirectedEdges() int { return len(t.to) }
