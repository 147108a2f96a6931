package roadnet

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/geo"
)

// tinyNetwork builds a 4-node diamond: 0 -> 1 -> 3, 0 -> 2 -> 3, all two-way.
func tinyNetwork(t *testing.T) *Network {
	t.Helper()
	b := NewBuilder()
	n0 := b.AddNode(geo.Pt(0, 0))
	n1 := b.AddNode(geo.Pt(100, 100))
	n2 := b.AddNode(geo.Pt(100, -100))
	n3 := b.AddNode(geo.Pt(200, 0))
	b.AddTwoWay(n0, n1, Arterial, "a")
	b.AddTwoWay(n1, n3, Arterial, "b")
	b.AddTwoWay(n0, n2, Local, "c")
	b.AddTwoWay(n2, n3, Local, "d")
	n, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return n
}

func TestBuilderBasics(t *testing.T) {
	n := tinyNetwork(t)
	if n.NumNodes() != 4 || n.NumRoads() != 8 {
		t.Fatalf("nodes=%d roads=%d", n.NumNodes(), n.NumRoads())
	}
	r := n.Road(0)
	if r.From != 0 || r.To != 1 || r.Class != Arterial || r.Name != "a" {
		t.Errorf("road 0 = %+v", r)
	}
	wantLen := geo.Pt(0, 0).Dist(geo.Pt(100, 100))
	if r.Length() != wantLen {
		t.Errorf("length = %v, want %v", r.Length(), wantLen)
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder()
	if _, err := b.Build(); err == nil {
		t.Error("empty network should fail to build")
	}
	b = NewBuilder()
	n0 := b.AddNode(geo.Pt(0, 0))
	b.AddRoad(n0, 99, Local, nil, "bad")
	if _, err := b.Build(); err == nil {
		t.Error("dangling node reference should fail")
	}
	b = NewBuilder()
	n0 = b.AddNode(geo.Pt(0, 0))
	b.AddRoad(n0, n0, Local, nil, "loop")
	if _, err := b.Build(); err == nil {
		t.Error("self-loop should fail")
	}
}

func TestOutInAdjacency(t *testing.T) {
	n := tinyNetwork(t)
	// Node 0 has two outgoing (0->1 and 0->2) and two incoming roads.
	if got := len(n.Out(0)); got != 2 {
		t.Errorf("Out(0) has %d roads", got)
	}
	if got := len(n.In(0)); got != 2 {
		t.Errorf("In(0) has %d roads", got)
	}
	// Road 0 (0->1) is adjacent to everything touching node 0 or node 1,
	// except itself: reverse(1->0), 0->2, 2->0, 1->3, 3->1. That is 5 roads.
	adj := n.Adjacent(0)
	if len(adj) != 5 {
		t.Errorf("Adjacent(0) = %v (%d roads), want 5", adj, len(adj))
	}
	for _, id := range adj {
		if id == 0 {
			t.Error("road adjacent to itself")
		}
	}
	// Adjacency is symmetric.
	for _, id := range adj {
		found := false
		for _, back := range n.Adjacent(id) {
			if back == 0 {
				found = true
			}
		}
		if !found {
			t.Errorf("adjacency not symmetric for %d", id)
		}
	}
}

func TestHops(t *testing.T) {
	n := tinyNetwork(t)
	dist := n.Hops([]RoadID{0}, -1)
	if dist[0] != 0 {
		t.Errorf("source dist = %d", dist[0])
	}
	for id, d := range dist {
		if d == -1 {
			t.Errorf("road %d unreachable", id)
		}
	}
	// Bounded BFS.
	dist = n.Hops([]RoadID{0}, 1)
	sawBeyond := false
	for _, d := range dist {
		if d > 1 {
			sawBeyond = true
		}
	}
	if sawBeyond {
		t.Error("maxHops=1 returned distance > 1")
	}
}

func TestGenerateDefault(t *testing.T) {
	n, err := Generate(DefaultGenerateConfig())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if n.NumRoads() < 500 {
		t.Errorf("default city has only %d roads", n.NumRoads())
	}
	counts := classCounts(n)
	for _, class := range []RoadClass{Highway, Arterial, Collector, Local} {
		if counts[class] == 0 {
			t.Errorf("no %v roads generated", class)
		}
	}
	// Everything must be reachable.
	dist := n.Hops([]RoadID{0}, -1)
	for id, d := range dist {
		if d == -1 {
			t.Fatalf("road %d unreachable", id)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultGenerateConfig()
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumRoads() != b.NumRoads() || a.NumNodes() != b.NumNodes() {
		t.Fatalf("same seed produced different networks: %d/%d vs %d/%d roads/nodes",
			a.NumRoads(), a.NumNodes(), b.NumRoads(), b.NumNodes())
	}
	for i := 0; i < a.NumRoads(); i++ {
		ra, rb := a.Road(RoadID(i)), b.Road(RoadID(i))
		if ra.From != rb.From || ra.To != rb.To || ra.Class != rb.Class || ra.Length() != rb.Length() {
			t.Fatalf("road %d differs between runs", i)
		}
	}
}

func TestGenerateSeedChangesNetwork(t *testing.T) {
	cfg := DefaultGenerateConfig()
	a, _ := Generate(cfg)
	cfg.Seed = 999
	b, _ := Generate(cfg)
	if a.NumRoads() == b.NumRoads() && a.TotalLength() == b.TotalLength() {
		t.Error("different seeds produced identical networks (suspicious)")
	}
}

func TestGenerateValidation(t *testing.T) {
	bad := []GenerateConfig{
		{BlocksX: 1, BlocksY: 5, BlockMeters: 100},
		{BlocksX: 5, BlocksY: 5, BlockMeters: 0},
		{BlocksX: 5, BlocksY: 5, BlockMeters: 100, DropLocalProb: 1.0},
		{BlocksX: 5, BlocksY: 5, BlockMeters: 100, Jitter: 0.9},
	}
	for i, cfg := range bad {
		if _, err := Generate(cfg); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
}

func TestGenerateCityConfigsScale(t *testing.T) {
	if testing.Short() {
		t.Skip("large generation in -short mode")
	}
	b, err := Generate(BCityConfig())
	if err != nil {
		t.Fatalf("BCity: %v", err)
	}
	tc, err := Generate(TCityConfig())
	if err != nil {
		t.Fatalf("TCity: %v", err)
	}
	if b.NumRoads() <= tc.NumRoads() {
		t.Errorf("B-City (%d) should be larger than T-City (%d)", b.NumRoads(), tc.NumRoads())
	}
	if b.NumRoads() < 5000 {
		t.Errorf("B-City too small: %d roads", b.NumRoads())
	}
}

func TestStatsHelpers(t *testing.T) {
	n := tinyNetwork(t)
	if meanSegmentLength(n) <= 0 {
		t.Error("mean segment length should be positive")
	}
	min, mean, max := degrees(n)
	if min <= 0 || max < min || mean < float64(min) || mean > float64(max) {
		t.Errorf("degrees = %d/%v/%d", min, mean, max)
	}
	if n.TotalLength() <= 0 {
		t.Error("TotalLength should be positive")
	}
	if n.Bounds().Empty() {
		t.Error("Bounds should not be empty")
	}
}

func TestRoadClassStrings(t *testing.T) {
	cases := map[RoadClass]string{
		Highway: "highway", Arterial: "arterial", Collector: "collector", Local: "local",
		RoadClass(42): "roadclass(42)",
	}
	for c, want := range cases {
		if got := c.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", c, got, want)
		}
	}
	// Free-flow speeds decrease with class.
	if !(Highway.FreeFlowSpeed() > Arterial.FreeFlowSpeed() &&
		Arterial.FreeFlowSpeed() > Collector.FreeFlowSpeed() &&
		Collector.FreeFlowSpeed() > Local.FreeFlowSpeed()) {
		t.Error("free-flow speeds not ordered by class")
	}
	if !(Highway.ImportanceWeight() > Local.ImportanceWeight()) {
		t.Error("importance weights not ordered")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	n, err := Generate(DefaultGenerateConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, n); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	if back.NumRoads() != n.NumRoads() || back.NumNodes() != n.NumNodes() {
		t.Fatalf("round trip changed sizes: %d/%d vs %d/%d",
			back.NumRoads(), back.NumNodes(), n.NumRoads(), n.NumNodes())
	}
	for i := 0; i < n.NumRoads(); i++ {
		a, b := n.Road(RoadID(i)), back.Road(RoadID(i))
		if a.From != b.From || a.To != b.To || a.Class != b.Class || a.Name != b.Name {
			t.Fatalf("road %d differs after round trip", i)
		}
		if d := a.Length() - b.Length(); d > 1e-9 || d < -1e-9 {
			t.Fatalf("road %d length differs after round trip", i)
		}
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadJSON(bytes.NewBufferString("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadJSON(bytes.NewBufferString(`{"version":99,"nodes":[],"roads":[]}`)); err == nil {
		t.Error("wrong version accepted")
	}
	if _, err := ReadJSON(bytes.NewBufferString(
		`{"version":1,"nodes":[{"x":0,"y":0},{"x":1,"y":1}],"roads":[{"from":0,"to":1,"class":99}]}`)); err == nil {
		t.Error("invalid class accepted")
	}
}

func TestJSONPreservesShapedGeometry(t *testing.T) {
	b := NewBuilder()
	n0 := b.AddNode(geo.Pt(0, 0))
	n1 := b.AddNode(geo.Pt(100, 0))
	shaped := geo.Polyline{geo.Pt(0, 0), geo.Pt(50, 30), geo.Pt(100, 0)}
	b.AddRoad(n0, n1, Collector, shaped, "curvy")
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, n); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(back.Road(0).Geometry); got != 3 {
		t.Errorf("shaped geometry has %d points after round trip, want 3", got)
	}
	if back.Road(0).Length() != n.Road(0).Length() {
		t.Error("shaped length changed")
	}
}

// classCounts returns the number of segments of each class.
func classCounts(n *Network) map[RoadClass]int {
	counts := make(map[RoadClass]int, int(numClasses))
	for i := range n.roads {
		counts[n.roads[i].Class]++
	}
	return counts
}

// meanSegmentLength returns the average segment length in metres.
func meanSegmentLength(n *Network) float64 {
	if n.NumRoads() == 0 {
		return 0
	}
	return n.TotalLength() / float64(n.NumRoads())
}

// degrees returns the min, mean and max road-level adjacency degree.
func degrees(n *Network) (min int, mean float64, max int) {
	min = math.MaxInt32
	var sum int
	for i := range n.roads {
		d := len(n.adj[i])
		sum += d
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	mean = float64(sum) / float64(len(n.roads))
	return min, mean, max
}
