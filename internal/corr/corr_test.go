package corr

import (
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/dataset"
	"repro/internal/history"
	"repro/internal/roadnet"
	"repro/internal/timeslot"

	"time"
)

func buildDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	cfg := dataset.DefaultConfig()
	cfg.Net.BlocksX, cfg.Net.BlocksY = 7, 6
	cfg.HistoryDays = 7
	cfg.CoveragePerSlot = 0.7
	d, err := dataset.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestConfigValidation(t *testing.T) {
	t.Parallel()
	bad := []Config{
		{MinAgreement: 0.4},
		{MinAgreement: 1.0},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestBuildRejectsMismatchedSizes(t *testing.T) {
	t.Parallel()
	d := buildDataset(t)
	cal := timeslot.MustCalendar(time.Date(2016, 3, 7, 0, 0, 0, 0, time.UTC), 10*time.Minute)
	b, _ := history.NewBuilder(cal, 1)
	if err := b.Add(0, 0, 10); err != nil {
		t.Fatal(err)
	}
	tiny := b.Finalize()
	if _, err := Build(d.Net, tiny, DefaultConfig()); err == nil {
		t.Error("mismatched road counts accepted")
	}
}

func TestGraphStructure(t *testing.T) {
	t.Parallel()
	d := buildDataset(t)
	g, err := Build(d.Net, d.DB, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if g.NumRoads() != d.Net.NumRoads() {
		t.Fatalf("graph covers %d roads", g.NumRoads())
	}
	if g.NumEdges() == 0 {
		t.Fatal("no correlation edges found; the simulator should produce correlated trends")
	}
	// Symmetry: every edge appears from both endpoints with equal agreement.
	for u := 0; u < g.NumRoads(); u++ {
		for _, e := range g.Neighbors(roadnet.RoadID(u)) {
			found := false
			for _, back := range g.Neighbors(e.To) {
				if back.To == roadnet.RoadID(u) {
					found = true
					if back.Agreement != e.Agreement || back.N != e.N {
						t.Fatalf("edge %d-%d asymmetric stats", u, e.To)
					}
				}
			}
			if !found {
				t.Fatalf("edge %d→%d has no reverse", u, e.To)
			}
		}
	}
	// Thresholds respected.
	cfg := DefaultConfig()
	for u := 0; u < g.NumRoads(); u++ {
		for _, e := range g.Neighbors(roadnet.RoadID(u)) {
			if e.Agreement < cfg.MinAgreement {
				t.Fatalf("edge below agreement threshold: %v", e.Agreement)
			}
			if int(e.N) < minCoObserved {
				t.Fatalf("edge below co-observation threshold: %d", e.N)
			}
		}
	}
	// Neighbour lists are sorted by agreement.
	for u := 0; u < g.NumRoads(); u++ {
		es := g.Neighbors(roadnet.RoadID(u))
		for i := 1; i < len(es); i++ {
			if es[i-1].Agreement < es[i].Agreement {
				t.Fatalf("neighbours of %d not sorted", u)
			}
		}
	}
}

func TestMostEdgesJoinNearbyRoads(t *testing.T) {
	t.Parallel()
	d := buildDataset(t)
	cfg := DefaultConfig()
	g, err := Build(d.Net, d.DB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// By construction every edge joins roads within maxHops.
	for u := 0; u < g.NumRoads(); u++ {
		if g.Degree(roadnet.RoadID(u)) == 0 {
			continue
		}
		hops := d.Net.Hops([]roadnet.RoadID{roadnet.RoadID(u)}, maxHops)
		for _, e := range g.Neighbors(roadnet.RoadID(u)) {
			if hops[e.To] == -1 {
				t.Fatalf("edge %d-%d spans more than %d hops", u, e.To, maxHops)
			}
		}
		if u > 40 {
			break // spot check is enough; Hops is O(V) per call
		}
	}
}

func TestHigherThresholdSparsifies(t *testing.T) {
	t.Parallel()
	d := buildDataset(t)
	loose, strict := DefaultConfig(), DefaultConfig()
	loose.MinAgreement, strict.MinAgreement = 0.55, 0.8
	gl, err := Build(d.Net, d.DB, loose)
	if err != nil {
		t.Fatal(err)
	}
	gs, err := Build(d.Net, d.DB, strict)
	if err != nil {
		t.Fatal(err)
	}
	if gs.NumEdges() >= gl.NumEdges() {
		t.Errorf("τ=0.8 graph (%d edges) not sparser than τ=0.55 (%d)", gs.NumEdges(), gl.NumEdges())
	}
}

func TestAdjacentRoadsAgreeMoreThanThreshold(t *testing.T) {
	t.Parallel()
	// The simulator's correlated field should give physically adjacent roads
	// high trend agreement; sanity-check the estimator sees it.
	d := buildDataset(t)
	g, err := Build(d.Net, d.DB, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	degSum := 0
	for u := 0; u < g.NumRoads(); u++ {
		degSum += g.Degree(roadnet.RoadID(u))
	}
	if mean := float64(degSum) / float64(g.NumRoads()); mean < 1 {
		t.Errorf("mean correlation degree %v < 1; trend correlation too weak", mean)
	}
}

// BenchmarkCorrBuild builds the correlation graph of the 6×5-block, 4-day
// city hlm's golden test trains on. candidate-pairs/op counts the road
// pairs within maxHops that Build scores; scored-pairs/op counts those that
// clear the co-observation and agreement thresholds, the edges before
// pruning.
func BenchmarkCorrBuild(b *testing.B) {
	d := goldenCity(b)
	cc := DefaultConfig()
	candidates := 0
	for u := 0; u < d.Net.NumRoads(); u++ {
		hops := d.Net.Hops([]roadnet.RoadID{roadnet.RoadID(u)}, maxHops)
		for v := u + 1; v < len(hops); v++ {
			if hops[v] >= 0 {
				candidates++
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(d.Net, d.DB, cc); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	unpruned, _ := referenceLists(d.Net, d.DB, cc)
	scored := 0
	for _, es := range unpruned {
		scored += len(es)
	}
	b.ReportMetric(float64(candidates), "candidate-pairs/op")
	b.ReportMetric(float64(scored/2), "scored-pairs/op")
}

// goldenCity builds the 6×5-block, 4-day city (162 roads) hlm's golden test
// trains on.
func goldenCity(tb testing.TB) *dataset.Dataset {
	tb.Helper()
	cfg := dataset.DefaultConfig()
	cfg.Net.BlocksX, cfg.Net.BlocksY = 6, 5
	cfg.HistoryDays = 4
	d, err := dataset.Build(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

// TestEdgeListsExactlySized: an Edge is 16 bytes, and on the golden city
// and on a perturbed roll-forward of it every list Build makes, pruned or
// not, has capacity equal to its length.
func TestEdgeListsExactlySized(t *testing.T) {
	t.Parallel()
	if got := unsafe.Sizeof(Edge{}); got != 16 {
		t.Errorf("an Edge is %d bytes, want 16", got)
	}
	d := goldenCity(t)
	cfg := DefaultConfig()
	rolled := perturb(t, rand.New(rand.NewSource(5)), d.DB, []int{3, 17, 29, 64, 101, 150})
	for _, c := range []struct {
		label string
		db    *history.DB
	}{{"golden", d.DB}, {"rolled", rolled}} {
		g, err := Build(d.Net, c.db, cfg)
		if err != nil {
			t.Fatal(err)
		}
		unpruned, _ := referenceLists(d.Net, c.db, cfg)
		pruned := 0
		for r, es := range g.edges {
			if cap(es) != len(es) {
				t.Fatalf("%s road %d: list of %d edges has capacity %d", c.label, r, len(es), cap(es))
			}
			if len(es) < len(unpruned[r]) {
				pruned++
			}
		}
		if pruned == 0 {
			t.Errorf("%s: pruning dropped no edge; the test checks no pruned list", c.label)
		}
	}
}
