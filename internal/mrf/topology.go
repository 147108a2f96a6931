package mrf

import (
	"fmt"

	"repro/internal/corr"
	"repro/internal/roadnet"
)

// Topology is the precomputed message-passing structure of a correlation
// graph: the directed edges in CSR layout plus, per directed edge, the index
// of its reverse edge. Building it costs O(E·deg) — the price BP previously
// paid inside every single Infer — but the correlation graph is immutable,
// so a Topology is computed once (core builds it at estimator-construction
// time) and shared read-only by every BP run over that graph.
type Topology struct {
	graph *corr.Graph
	// off[u]..off[u+1] delimit node u's incoming-message slots; slot i holds
	// the message from neighbour to[i] into u.
	off []int32
	// to[i] is the neighbour on the other end of directed edge i.
	to []int32
	// agree[i] is the raw (untempered) trend agreement of the edge; Model
	// applies its own temper at message-computation time.
	agree []float64
	// rev[i] is the index of the reverse directed edge: the slot where a
	// message *from* the owner of slot i is delivered to to[i].
	rev []int32
}

// NewTopology builds the message-passing structure for a correlation graph.
// It fails if the graph is not symmetric (every edge must appear in both
// endpoints' neighbour lists).
func NewTopology(g *corr.Graph) (*Topology, error) {
	n := g.NumRoads()
	t := &Topology{graph: g, off: make([]int32, n+1)}
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
			t.agree[base+int32(k)] = e.Agreement
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

// Graph returns the graph the topology was built from.
func (t *Topology) Graph() *corr.Graph { return t.graph }

// NumDirectedEdges returns the number of directed edges (message slots).
func (t *Topology) NumDirectedEdges() int { return len(t.to) }
