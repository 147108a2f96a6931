// Package roadnet models the urban road network the estimator runs on.
//
// The network is a directed multigraph: junctions (nodes) joined by road
// segments (edges). Each segment carries geometry, a road class (which
// determines free-flow speed and importance), and the adjacency needed by
// the correlation graph and by seed selection. The package also contains
// the synthetic city generator that substitutes for the proprietary
// Beijing/Tianjin maps (see DESIGN.md §5) and codecs for persisting
// networks.
package roadnet

import (
	"fmt"
	"sort"

	"repro/internal/geo"
)

// RoadClass categorises a segment; it drives free-flow speed, capacity and
// the importance weight used by seed selection.
type RoadClass uint8

// Road classes, from most to least important.
const (
	Highway RoadClass = iota // urban expressway / ring road
	Arterial
	Collector
	Local
	numClasses
)

// String implements fmt.Stringer.
func (c RoadClass) String() string {
	switch c {
	case Highway:
		return "highway"
	case Arterial:
		return "arterial"
	case Collector:
		return "collector"
	case Local:
		return "local"
	default:
		return fmt.Sprintf("roadclass(%d)", uint8(c))
	}
}

// FreeFlowSpeed returns the nominal uncongested speed for the class in m/s.
func (c RoadClass) FreeFlowSpeed() float64 {
	switch c {
	case Highway:
		return 90.0 / 3.6
	case Arterial:
		return 60.0 / 3.6
	case Collector:
		return 45.0 / 3.6
	default:
		return 30.0 / 3.6
	}
}

// ImportanceWeight returns the relative importance of roads of this class for
// the seed-selection benefit function: congestion on major roads affects more
// travellers.
func (c RoadClass) ImportanceWeight() float64 {
	switch c {
	case Highway:
		return 4
	case Arterial:
		return 3
	case Collector:
		return 2
	default:
		return 1
	}
}

// RoadID identifies a segment within a Network; IDs are dense in
// [0, Network.NumRoads).
type RoadID int32

// NodeID identifies a junction; IDs are dense in [0, Network.NumNodes).
type NodeID int32

// Road is a directed road segment.
type Road struct {
	ID       RoadID
	From     NodeID
	To       NodeID
	Class    RoadClass
	Geometry geo.Polyline
	Name     string
	length   float64
}

// Length returns the segment length in metres (cached from the geometry).
func (r *Road) Length() float64 { return r.length }

// Node is a junction.
type Node struct {
	ID  NodeID
	Pos geo.Point
}

// Network is an immutable road network. Build one with a Builder or a
// generator, then share it freely: all methods are safe for concurrent use.
type Network struct {
	nodes []Node
	roads []Road

	out [][]RoadID // outgoing road IDs per node
	in  [][]RoadID // incoming road IDs per node

	adj [][]RoadID // road-level adjacency: roads sharing a junction
}

// NumRoads returns the number of road segments.
func (n *Network) NumRoads() int { return len(n.roads) }

// NumNodes returns the number of junctions.
func (n *Network) NumNodes() int { return len(n.nodes) }

// Road returns the segment with the given ID; it panics on out-of-range IDs
// like a slice access would.
func (n *Network) Road(id RoadID) *Road { return &n.roads[id] }

// Node returns the junction with the given ID.
func (n *Network) Node(id NodeID) *Node { return &n.nodes[id] }

// Roads returns the full segment slice; callers must not modify it.
func (n *Network) Roads() []Road { return n.roads }

// Out returns the IDs of roads leaving node id; callers must not modify it.
func (n *Network) Out(id NodeID) []RoadID { return n.out[id] }

// In returns the IDs of roads entering node id; callers must not modify it.
func (n *Network) In(id NodeID) []RoadID { return n.in[id] }

// Adjacent returns the road-level neighbours of road id: every distinct road
// sharing a junction with it (either endpoint, either direction). The slice
// is sorted and must not be modified.
func (n *Network) Adjacent(id RoadID) []RoadID { return n.adj[id] }

// Bounds returns the bounding box of the whole network.
func (n *Network) Bounds() geo.Rect {
	r := geo.EmptyRect()
	for i := range n.roads {
		r = r.Union(n.roads[i].Geometry.Bounds())
	}
	return r
}

// TotalLength returns the summed length of all segments in metres.
func (n *Network) TotalLength() float64 {
	var total float64
	for i := range n.roads {
		total += n.roads[i].length
	}
	return total
}

// Hops runs a breadth-first search over road-level adjacency from each of
// the sources and returns, for every road, the hop distance to the nearest
// source (or -1 if unreachable within maxHops; maxHops < 0 means unlimited).
func (n *Network) Hops(sources []RoadID, maxHops int) []int {
	dist := make([]int, len(n.roads))
	for i := range dist {
		dist[i] = -1
	}
	queue := make([]RoadID, 0, len(sources))
	for _, s := range sources {
		if dist[s] == -1 {
			dist[s] = 0
			queue = append(queue, s)
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if maxHops >= 0 && dist[cur] >= maxHops {
			continue
		}
		for _, nb := range n.adj[cur] {
			if dist[nb] == -1 {
				dist[nb] = dist[cur] + 1
				queue = append(queue, nb)
			}
		}
	}
	return dist
}

// Builder accumulates nodes and roads and produces an immutable Network.
type Builder struct {
	nodes []Node
	roads []Road
	err   error
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder { return &Builder{} }

// AddNode appends a junction at pos and returns its ID.
func (b *Builder) AddNode(pos geo.Point) NodeID {
	id := NodeID(len(b.nodes))
	b.nodes = append(b.nodes, Node{ID: id, Pos: pos})
	return id
}

// AddRoad appends a directed segment between two existing nodes. If geometry
// is nil, a straight line between the endpoints is used. Returns the new
// road's ID.
func (b *Builder) AddRoad(from, to NodeID, class RoadClass, geometry geo.Polyline, name string) RoadID {
	if b.err != nil {
		return -1
	}
	if int(from) >= len(b.nodes) || int(to) >= len(b.nodes) || from < 0 || to < 0 {
		b.err = fmt.Errorf("roadnet: AddRoad references unknown node (%d -> %d, have %d nodes)", from, to, len(b.nodes))
		return -1
	}
	if from == to {
		b.err = fmt.Errorf("roadnet: AddRoad self-loop at node %d", from)
		return -1
	}
	if geometry == nil {
		geometry = geo.Polyline{b.nodes[from].Pos, b.nodes[to].Pos}
	}
	id := RoadID(len(b.roads))
	b.roads = append(b.roads, Road{
		ID: id, From: from, To: to, Class: class,
		Geometry: geometry, Name: name, length: geometry.Length(),
	})
	return id
}

// AddTwoWay adds a pair of opposite segments between the nodes and returns
// both IDs.
func (b *Builder) AddTwoWay(a, c NodeID, class RoadClass, name string) (RoadID, RoadID) {
	r1 := b.AddRoad(a, c, class, nil, name)
	r2 := b.AddRoad(c, a, class, nil, name)
	return r1, r2
}

// Build finalises the network. It returns an error if any AddRoad call was
// invalid or the network is empty.
func (b *Builder) Build() (*Network, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.roads) == 0 {
		return nil, fmt.Errorf("roadnet: network has no roads")
	}
	n := &Network{nodes: b.nodes, roads: b.roads}
	n.out = make([][]RoadID, len(n.nodes))
	n.in = make([][]RoadID, len(n.nodes))
	for i := range n.roads {
		r := &n.roads[i]
		n.out[r.From] = append(n.out[r.From], r.ID)
		n.in[r.To] = append(n.in[r.To], r.ID)
	}
	n.adj = make([][]RoadID, len(n.roads))
	for i := range n.roads {
		r := &n.roads[i]
		seen := map[RoadID]bool{r.ID: true}
		var nbs []RoadID
		for _, node := range []NodeID{r.From, r.To} {
			for _, lists := range [][]RoadID{n.out[node], n.in[node]} {
				for _, other := range lists {
					if !seen[other] {
						seen[other] = true
						nbs = append(nbs, other)
					}
				}
			}
		}
		sort.Slice(nbs, func(a, b int) bool { return nbs[a] < nbs[b] })
		n.adj[i] = nbs
	}
	return n, nil
}
