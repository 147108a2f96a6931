package hlm

import (
	"math"
	"sync"
	"testing"

	"repro/internal/corr"
	"repro/internal/dataset"
	"repro/internal/roadnet"
)

var (
	fixtureOnce  sync.Once
	fixtureData  *dataset.Dataset
	fixtureGraph *corr.Graph
	fixtureModel *Model
)

// buildFixtures returns the shared test dataset and correlation graph. The
// dataset's simulator state is shared too: tests that advance it via
// NextTruth consume distinct slots, which is fine — every slot is a valid
// evaluation point.
func buildFixtures(t *testing.T) (*dataset.Dataset, *corr.Graph) {
	t.Helper()
	fixtureOnce.Do(func() {
		cfg := dataset.DefaultConfig()
		cfg.Net.BlocksX, cfg.Net.BlocksY = 7, 6
		cfg.HistoryDays = 7
		cfg.CoveragePerSlot = 0.75
		d, err := dataset.Build(cfg)
		if err != nil {
			panic(err)
		}
		g, err := corr.Build(d.Net, d.DB, corr.DefaultConfig())
		if err != nil {
			panic(err)
		}
		m, err := Train(g, d.DB, Config{})
		if err != nil {
			panic(err)
		}
		fixtureData, fixtureGraph, fixtureModel = d, g, m
	})
	return fixtureData, fixtureGraph
}

// sharedModel returns the model trained once on the shared fixture.
func sharedModel(t *testing.T) *Model {
	t.Helper()
	buildFixtures(t)
	return fixtureModel
}

func TestTrainRejectsMismatch(t *testing.T) {
	d, _ := buildFixtures(t)
	small, err := corr.NewGraph(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Train(small, d.DB, Config{}); err == nil {
		t.Error("mismatched sizes accepted")
	}
	// Bad level length.
	g, err := corr.Build(d.Net, d.DB, corr.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{}
	cfg.Levels = [][]int{{1, 2, 3}}
	if _, err := Train(g, d.DB, cfg); err == nil {
		t.Error("mismatched level length accepted")
	}
}

func TestTrainProducesRegressions(t *testing.T) {
	d, _ := buildFixtures(t)
	m := sharedModel(t)
	if m.NumRoads() != d.Net.NumRoads() {
		t.Fatalf("model covers %d roads", m.NumRoads())
	}
	if cov := regressionCoverage(m); cov < 0.5 {
		t.Errorf("regression coverage %v too low; training data should support most roads", cov)
	}
	slopes := 0
	for i := range m.roads {
		for _, pm := range m.roads[i].pairs {
			if pm.pooled.N > 0 {
				slopes++
			}
		}
	}
	if slopes == 0 {
		t.Error("no pairwise slopes trained")
	}
}

// regressionCoverage returns the fraction of m's roads with at least one
// pairwise regression.
func regressionCoverage(m *Model) float64 {
	n := 0
	for i := range m.roads {
		if len(m.roads[i].pairs) > 0 {
			n++
		}
	}
	return float64(n) / float64(len(m.roads))
}

func TestEstimateValidatesInputs(t *testing.T) {
	m := sharedModel(t)
	n := m.NumRoads()
	if _, err := m.Estimate(&Request{
		Rel: relVector(n, nil),
		PUp: make([]float64, 2),
	}); err == nil {
		t.Error("wrong PUp length accepted")
	}
	if _, err := m.Estimate(&Request{
		Rel: relVector(n+5, nil),
		PUp: make([]float64, n),
	}); err == nil {
		t.Error("wrong Rel length accepted")
	}
}

// relVector returns the Request.Rel of n roads on which the roads of seeds
// report their rels and every other road reports nothing (NaN).
func relVector(n int, seeds map[roadnet.RoadID]float64) []float64 {
	rel := make([]float64, n)
	for r := range rel {
		rel[r] = math.NaN()
	}
	for r, v := range seeds {
		rel[r] = v
	}
	return rel
}

func TestSeedRelsPassThrough(t *testing.T) {
	m := sharedModel(t)
	seeds := map[roadnet.RoadID]float64{3: 1.2, 10: 0.7}
	rel, err := m.Estimate(&Request{
		Rel: relVector(m.NumRoads(), seeds), PUp: make([]float64, m.NumRoads()),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rel[3] != 1.2 || rel[10] != 0.7 {
		t.Errorf("seed rels not passed through: %v, %v", rel[3], rel[10])
	}
	// Out-of-envelope seed observations are clamped.
	rel, err = m.Estimate(&Request{
		Rel: relVector(m.NumRoads(), map[roadnet.RoadID]float64{0: 99}), PUp: make([]float64, m.NumRoads()),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rel[0] != 1.75 {
		t.Errorf("wild seed rel not clamped: %v", rel[0])
	}
}

func TestAllRelsPhysical(t *testing.T) {
	m := sharedModel(t)
	trend := make([]float64, m.NumRoads())
	for i := range trend {
		if i%3 == 0 {
			trend[i] = 1
		}
	}
	rel, err := m.Estimate(&Request{
		Rel: relVector(m.NumRoads(), map[roadnet.RoadID]float64{0: 1.1, 50: 0.8}),
		PUp: trend,
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, v := range rel {
		if v < 0.25 || v > 1.75 || math.IsNaN(v) {
			t.Fatalf("road %d rel %v outside envelope", r, v)
		}
	}
}

func TestTrendChangesEstimates(t *testing.T) {
	// Flipping every trend from up to down must lower the average estimate:
	// the model's whole point is that trends carry speed information.
	m := sharedModel(t)
	n := m.NumRoads()
	allUp, allDown := make([]float64, n), make([]float64, n)
	for i := range allUp {
		allUp[i] = 1
	}
	seeds := map[roadnet.RoadID]float64{0: 1.0}
	relUp, err := m.Estimate(&Request{Rel: relVector(m.NumRoads(), seeds), PUp: allUp})
	if err != nil {
		t.Fatal(err)
	}
	relDown, err := m.Estimate(&Request{Rel: relVector(m.NumRoads(), seeds), PUp: allDown})
	if err != nil {
		t.Fatal(err)
	}
	var meanUp, meanDown float64
	for i := 0; i < n; i++ {
		meanUp += relUp[i]
		meanDown += relDown[i]
	}
	meanUp /= float64(n)
	meanDown /= float64(n)
	if meanUp <= meanDown {
		t.Errorf("all-up mean rel %v not above all-down %v", meanUp, meanDown)
	}
}

func TestSoftPUpInterpolates(t *testing.T) {
	// With PUp = 0.5 everywhere the estimate must lie between the all-up
	// and all-down extremes.
	m := sharedModel(t)
	n := m.NumRoads()
	mk := func(p float64) []float64 {
		pup := make([]float64, n)
		for i := range pup {
			pup[i] = p
		}
		return pup
	}
	seeds := map[roadnet.RoadID]float64{0: 1.0}
	mean := func(pup []float64) float64 {
		rel, err := m.Estimate(&Request{Rel: relVector(m.NumRoads(), seeds), PUp: pup})
		if err != nil {
			t.Fatal(err)
		}
		var s float64
		for _, v := range rel {
			s += v
		}
		return s / float64(n)
	}
	up := mean(mk(0.95))
	half := mean(mk(0.5))
	down := mean(mk(0.05))
	if !(down < half && half < up) {
		t.Errorf("soft blend not monotone: down=%v half=%v up=%v", down, half, up)
	}
}

func TestHierarchyPropagatesSeedInformation(t *testing.T) {
	// A high seed rel must raise correlation-neighbour estimates relative
	// to a low seed rel, for some neighbour with a trained pair model on
	// the seed.
	_, g := buildFixtures(t)
	m := sharedModel(t)
	var seed roadnet.RoadID = -1
	for r := 0; r < m.NumRoads() && seed < 0; r++ {
		rid := roadnet.RoadID(r)
		for _, e := range g.Neighbors(rid) {
			nb := &m.roads[e.To]
			for i, feat := range nb.neighbors {
				if feat == rid && nb.pairs[i].fitted() {
					seed = rid
				}
			}
		}
	}
	if seed < 0 {
		t.Skip("no road is a pair feature of a neighbour")
	}
	trend := make([]float64, m.NumRoads())
	relHigh, err := m.Estimate(&Request{Rel: relVector(m.NumRoads(), map[roadnet.RoadID]float64{seed: 1.5}), PUp: trend})
	if err != nil {
		t.Fatal(err)
	}
	relLow, err := m.Estimate(&Request{Rel: relVector(m.NumRoads(), map[roadnet.RoadID]float64{seed: 0.5}), PUp: trend})
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for _, e := range g.Neighbors(seed) {
		if relHigh[e.To] != relLow[e.To] {
			moved++
		}
	}
	if moved == 0 {
		t.Error("no neighbour responded to the seed's observed rel")
	}
}

func TestFlatModeIgnoresSeedPropagation(t *testing.T) {
	m := sharedModel(t)
	trend := make([]float64, m.NumRoads())
	seeds := map[roadnet.RoadID]float64{5: 1.6}
	flat, err := m.Estimate(&Request{Rel: relVector(m.NumRoads(), seeds), PUp: trend, Flat: true})
	if err != nil {
		t.Fatal(err)
	}
	if flat[5] != 1.6 {
		t.Errorf("flat seed = %v", flat[5])
	}
	// Flat estimates of non-seeds depend only on trends (no levels are
	// configured in this test fixture), so two different seed values give
	// identical non-seed estimates.
	flat2, err := m.Estimate(&Request{Rel: relVector(m.NumRoads(), map[roadnet.RoadID]float64{5: 0.5}), PUp: trend, Flat: true})
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for r := range flat {
		if roadnet.RoadID(r) == 5 {
			continue
		}
		if flat[r] == flat2[r] {
			same++
		}
	}
	// Pooled levels are off (nil Levels), so only roads whose level inputs
	// change could differ; with no levels everything must be identical.
	if same != len(flat)-1 {
		t.Errorf("flat mode propagated seed values: %d/%d unchanged", same, len(flat)-1)
	}
}

func TestLevelsUseSeedGroupMeans(t *testing.T) {
	// With a city-wide level, flat estimates must respond to the seeds'
	// overall deviation.
	d, g := buildFixtures(t)
	cfg := Config{}
	city := make([]int, d.Net.NumRoads())
	cfg.Levels = [][]int{city}
	m, err := Train(g, d.DB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := m.NumRoads()
	seedsHigh := map[roadnet.RoadID]float64{}
	seedsLow := map[roadnet.RoadID]float64{}
	for r := 0; r < n; r += 10 {
		seedsHigh[roadnet.RoadID(r)] = 1.3
		seedsLow[roadnet.RoadID(r)] = 0.7
	}
	relHigh, err := m.Estimate(&Request{Rel: relVector(m.NumRoads(), seedsHigh), Flat: true})
	if err != nil {
		t.Fatal(err)
	}
	relLow, err := m.Estimate(&Request{Rel: relVector(m.NumRoads(), seedsLow), Flat: true})
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for r := 0; r < n; r++ {
		if _, isSeed := seedsHigh[roadnet.RoadID(r)]; isSeed {
			continue
		}
		if relHigh[r] > relLow[r] {
			moved++
		}
	}
	if moved < (n-len(seedsHigh))/2 {
		t.Errorf("only %d non-seed roads responded to the city level", moved)
	}
}

func TestNoSeedsFallsBackEverywhere(t *testing.T) {
	m := sharedModel(t)
	rel, err := m.Estimate(&Request{Rel: relVector(m.NumRoads(), nil), PUp: make([]float64, m.NumRoads())})
	if err != nil {
		t.Fatal(err)
	}
	for r, v := range rel {
		if v < 0.25 || v > 1.75 {
			t.Fatalf("road %d rel %v with no seeds", r, v)
		}
	}
}

func TestSpeedsOf(t *testing.T) {
	d, _ := buildFixtures(t)
	m := sharedModel(t)
	rel, err := m.Estimate(&Request{Rel: relVector(m.NumRoads(), map[roadnet.RoadID]float64{0: 1}), PUp: make([]float64, m.NumRoads())})
	if err != nil {
		t.Fatal(err)
	}
	speeds := SpeedsOf(d.DB, d.Slot(), rel)
	nonzero := 0
	for r, v := range speeds {
		if v < 0 || v > 45 {
			t.Fatalf("road %d speed %v implausible", r, v)
		}
		if v > 0 {
			nonzero++
		}
	}
	if nonzero < len(speeds)*9/10 {
		t.Errorf("only %d/%d roads got speeds", nonzero, len(speeds))
	}
}

func TestEstimationAccuracyBeatsHistoricalMean(t *testing.T) {
	// End-to-end sanity: with ground-truth trends and 20% true seed rels,
	// the HLM must beat the plain historical mean (rel = 1) on MAE.
	d, _ := buildFixtures(t)
	m := sharedModel(t)
	n := d.Net.NumRoads()
	var hlmErr, histErr float64
	var count int
	for step := 0; step < 10; step++ {
		slot, truth := d.NextTruth()
		trend := make([]float64, n)
		seedRels := map[roadnet.RoadID]float64{}
		for r := 0; r < n; r++ {
			mean, ok := d.DB.Mean(roadnet.RoadID(r), slot)
			if !ok || mean <= 0 {
				continue
			}
			if truth[r] >= mean {
				trend[r] = 1
			}
			if r%5 == 0 { // every 5th road is a seed
				seedRels[roadnet.RoadID(r)] = truth[r] / mean
			}
		}
		rel, err := m.Estimate(&Request{Rel: relVector(m.NumRoads(), seedRels), PUp: trend})
		if err != nil {
			t.Fatal(err)
		}
		est := SpeedsOf(d.DB, slot, rel)
		for r := 0; r < n; r++ {
			if _, isSeed := seedRels[roadnet.RoadID(r)]; isSeed {
				continue
			}
			mean, ok := d.DB.Mean(roadnet.RoadID(r), slot)
			if !ok || est[r] <= 0 {
				continue
			}
			hlmErr += math.Abs(est[r] - truth[r])
			histErr += math.Abs(mean - truth[r])
			count++
		}
	}
	if count == 0 {
		t.Fatal("no scored roads")
	}
	hlmMAE, histMAE := hlmErr/float64(count), histErr/float64(count)
	t.Logf("HLM MAE = %.3f m/s, historical-mean MAE = %.3f m/s", hlmMAE, histMAE)
	if hlmMAE >= histMAE {
		t.Errorf("HLM MAE %.3f not below historical-mean MAE %.3f", hlmMAE, histMAE)
	}
}
