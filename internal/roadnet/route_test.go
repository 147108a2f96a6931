package roadnet

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geo"
)

// lineNetwork builds a simple two-way chain of n+1 nodes spaced 100 m apart.
func lineNetwork(t *testing.T, n int) *Network {
	t.Helper()
	b := NewBuilder()
	var nodes []NodeID
	for i := 0; i <= n; i++ {
		nodes = append(nodes, b.AddNode(geo.Pt(float64(i)*100, 0)))
	}
	for i := 0; i < n; i++ {
		b.AddTwoWay(nodes[i], nodes[i+1], Collector, "seg")
	}
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestRouteAlongChain(t *testing.T) {
	net := lineNetwork(t, 5)
	rt := NewRouter(net)
	route, err := rt.Route(0, 5, func(RoadID) float64 { return 10 })
	if err != nil {
		t.Fatal(err)
	}
	if len(route.Roads) != 5 {
		t.Fatalf("route has %d roads, want 5", len(route.Roads))
	}
	if math.Abs(route.Meters-500) > 1e-9 {
		t.Errorf("Meters = %v", route.Meters)
	}
	if math.Abs(route.Seconds-50) > 1e-9 {
		t.Errorf("Seconds = %v", route.Seconds)
	}
	// Contiguity.
	for i := 1; i < len(route.Roads); i++ {
		if net.Road(route.Roads[i-1]).To != net.Road(route.Roads[i]).From {
			t.Fatal("route not contiguous")
		}
	}
	if net.Road(route.Roads[0]).From != 0 || net.Road(route.Roads[len(route.Roads)-1]).To != 5 {
		t.Error("route endpoints wrong")
	}
}

func TestRouteSameNode(t *testing.T) {
	net := lineNetwork(t, 3)
	rt := NewRouter(net)
	route, err := rt.Route(2, 2, func(RoadID) float64 { return 10 })
	if err != nil {
		t.Fatal(err)
	}
	if len(route.Roads) != 0 || route.Seconds != 0 {
		t.Errorf("self-route = %+v", route)
	}
}

func TestRouteValidation(t *testing.T) {
	net := lineNetwork(t, 3)
	rt := NewRouter(net)
	if _, err := rt.Route(-1, 2, func(RoadID) float64 { return 10 }); err == nil {
		t.Error("negative src accepted")
	}
	if _, err := rt.Route(0, 99, func(RoadID) float64 { return 10 }); err == nil {
		t.Error("out-of-range dst accepted")
	}
}

func TestRouteAvoidsSlowRoads(t *testing.T) {
	// A diamond: top path is longer but faster, bottom shorter but jammed.
	b := NewBuilder()
	src := b.AddNode(geo.Pt(0, 0))
	top := b.AddNode(geo.Pt(500, 400))
	bottom := b.AddNode(geo.Pt(400, -50))
	dst := b.AddNode(geo.Pt(800, 0))
	b.AddRoad(src, top, Arterial, nil, "up1")
	b.AddRoad(top, dst, Arterial, nil, "up2")
	b.AddRoad(src, bottom, Local, nil, "down1")
	b.AddRoad(bottom, dst, Local, nil, "down2")
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRouter(net)
	speeds := func(id RoadID) float64 {
		if net.Road(id).Class == Local {
			return 1 // crawling
		}
		return 15
	}
	route, err := rt.Route(src, dst, speeds)
	if err != nil {
		t.Fatal(err)
	}
	for _, rid := range route.Roads {
		if net.Road(rid).Class == Local {
			t.Error("route used the jammed bottom path")
		}
	}
	// With the bottom path fast instead, it wins (it is shorter).
	speeds2 := func(id RoadID) float64 { return 15 }
	route2, err := rt.Route(src, dst, speeds2)
	if err != nil {
		t.Fatal(err)
	}
	usedLocal := false
	for _, rid := range route2.Roads {
		if net.Road(rid).Class == Local {
			usedLocal = true
		}
	}
	if !usedLocal {
		t.Error("route ignored the shorter path at equal speeds")
	}
}

func TestRouteImpassable(t *testing.T) {
	net := lineNetwork(t, 3)
	rt := NewRouter(net)
	if _, err := rt.Route(0, 3, func(RoadID) float64 { return 0 }); err == nil {
		t.Error("route found through impassable network")
	}
}

func TestTravelTime(t *testing.T) {
	net := lineNetwork(t, 4)
	rt := NewRouter(net)
	route, err := rt.Route(0, 4, func(RoadID) float64 { return 10 })
	if err != nil {
		t.Fatal(err)
	}
	// Same speeds reproduce the planned time.
	got, err := rt.TravelTime(route.Roads, func(RoadID) float64 { return 10 })
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-route.Seconds) > 1e-9 {
		t.Errorf("TravelTime = %v, want %v", got, route.Seconds)
	}
	// Slower true speeds double the time.
	got, err = rt.TravelTime(route.Roads, func(RoadID) float64 { return 5 })
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-2*route.Seconds) > 1e-9 {
		t.Errorf("TravelTime at half speed = %v", got)
	}
	// Broken sequences are rejected.
	if len(route.Roads) >= 2 {
		broken := []RoadID{route.Roads[0], route.Roads[0]}
		if _, err := rt.TravelTime(broken, func(RoadID) float64 { return 10 }); err == nil {
			t.Error("non-contiguous sequence accepted")
		}
	}
	if _, err := rt.TravelTime([]RoadID{999}, func(RoadID) float64 { return 10 }); err == nil {
		t.Error("out-of-range road accepted")
	}
	if _, err := rt.TravelTime(route.Roads, func(RoadID) float64 { return 0 }); err == nil {
		t.Error("impassable road accepted")
	}
}

func TestRouteOptimalityAgainstBruteForce(t *testing.T) {
	// On a generated city with random speeds, Dijkstra's cost must match a
	// Bellman-Ford style relaxation oracle.
	cfg := DefaultGenerateConfig()
	cfg.BlocksX, cfg.BlocksY = 5, 4
	net, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	speeds := make([]float64, net.NumRoads())
	for i := range speeds {
		speeds[i] = 2 + rng.Float64()*18
	}
	speedFn := func(id RoadID) float64 { return speeds[id] }
	rt := NewRouter(net)

	// Bellman-Ford from node 0.
	n := net.NumNodes()
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[0] = 0
	for iter := 0; iter < n; iter++ {
		changed := false
		for r := 0; r < net.NumRoads(); r++ {
			road := net.Road(RoadID(r))
			cand := dist[road.From] + road.Length()/speeds[r]
			if cand < dist[road.To]-1e-12 {
				dist[road.To] = cand
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	for _, dst := range []NodeID{1, NodeID(n / 2), NodeID(n - 1)} {
		route, err := rt.Route(0, dst, speedFn)
		if err != nil {
			if !math.IsInf(dist[dst], 1) {
				t.Fatalf("router failed but oracle reached node %d", dst)
			}
			continue
		}
		if math.Abs(route.Seconds-dist[dst]) > 1e-6 {
			t.Errorf("node %d: router %v vs oracle %v", dst, route.Seconds, dist[dst])
		}
		// The reported time matches the route's own evaluation.
		tt, err := rt.TravelTime(route.Roads, speedFn)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(tt-route.Seconds) > 1e-9 {
			t.Errorf("route time inconsistent: %v vs %v", tt, route.Seconds)
		}
	}
}
