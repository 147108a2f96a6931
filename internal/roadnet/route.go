package roadnet

import (
	"container/heap"
	"fmt"
	"math"
)

// SpeedFunc supplies the current (or assumed) speed of a road in m/s; used
// by the router to turn lengths into travel times. Speeds ≤ 0 mark a road
// as impassable.
type SpeedFunc func(RoadID) float64

// Route is a shortest-travel-time path between two junctions.
type Route struct {
	// Roads is the ordered sequence of road segments to traverse.
	Roads []RoadID
	// Seconds is the total travel time under the speeds used for planning.
	Seconds float64
	// Meters is the total length.
	Meters float64
}

// Router computes fastest routes over a network with pluggable speeds.
// A Router is safe for concurrent use; each call allocates its own search
// state.
type Router struct {
	net *Network
}

// NewRouter returns a Router over the network.
func NewRouter(net *Network) *Router { return &Router{net: net} }

// pqItem is a priority-queue entry for Dijkstra.
type pqItem struct {
	node NodeID
	cost float64
}

type pq []pqItem

func (q pq) Len() int           { return len(q) }
func (q pq) Less(i, j int) bool { return q[i].cost < q[j].cost }
func (q pq) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x any)        { *q = append(*q, x.(pqItem)) }
func (q *pq) Pop() any          { old := *q; n := len(old); it := old[n-1]; *q = old[:n-1]; return it }

// Route returns the fastest path from junction src to junction dst under
// the given speeds. It fails when dst is unreachable.
func (rt *Router) Route(src, dst NodeID, speeds SpeedFunc) (*Route, error) {
	if int(src) < 0 || int(src) >= rt.net.NumNodes() || int(dst) < 0 || int(dst) >= rt.net.NumNodes() {
		return nil, fmt.Errorf("roadnet: route endpoints out of range (%d → %d)", src, dst)
	}
	n := rt.net.NumNodes()
	dist := make([]float64, n)
	via := make([]RoadID, n) // road taken to reach the node
	for i := range dist {
		dist[i] = math.Inf(1)
		via[i] = -1
	}
	dist[src] = 0
	q := pq{{node: src, cost: 0}}
	for len(q) > 0 {
		cur := heap.Pop(&q).(pqItem)
		if cur.cost > dist[cur.node] {
			continue // stale entry
		}
		if cur.node == dst {
			break
		}
		for _, rid := range rt.net.Out(cur.node) {
			road := rt.net.Road(rid)
			v := speeds(rid)
			if v <= 0 {
				continue
			}
			next := cur.cost + road.Length()/v
			if next < dist[road.To] {
				dist[road.To] = next
				via[road.To] = rid
				heap.Push(&q, pqItem{node: road.To, cost: next})
			}
		}
	}
	if math.IsInf(dist[dst], 1) {
		return nil, fmt.Errorf("roadnet: no route from node %d to node %d", src, dst)
	}
	// Reconstruct.
	var roads []RoadID
	var meters float64
	for at := dst; at != src; {
		rid := via[at]
		if rid < 0 {
			return nil, fmt.Errorf("roadnet: route reconstruction failed at node %d", at)
		}
		roads = append(roads, rid)
		road := rt.net.Road(rid)
		meters += road.Length()
		at = road.From
	}
	// Reverse into travel order.
	for i, j := 0, len(roads)-1; i < j; i, j = i+1, j-1 {
		roads[i], roads[j] = roads[j], roads[i]
	}
	return &Route{Roads: roads, Seconds: dist[dst], Meters: meters}, nil
}

// TravelTime evaluates an existing road sequence under (possibly different)
// speeds — e.g. scoring a route planned with estimated speeds against the
// true ones. It fails on broken sequences or impassable roads.
func (rt *Router) TravelTime(roads []RoadID, speeds SpeedFunc) (float64, error) {
	var total float64
	for i, rid := range roads {
		if int(rid) < 0 || int(rid) >= rt.net.NumRoads() {
			return 0, fmt.Errorf("roadnet: road %d out of range", rid)
		}
		road := rt.net.Road(rid)
		if i > 0 {
			prev := rt.net.Road(roads[i-1])
			if prev.To != road.From {
				return 0, fmt.Errorf("roadnet: roads %d and %d are not contiguous", roads[i-1], rid)
			}
		}
		v := speeds(rid)
		if v <= 0 {
			return 0, fmt.Errorf("roadnet: road %d impassable under given speeds", rid)
		}
		total += road.Length() / v
	}
	return total, nil
}
