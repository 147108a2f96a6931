package baselines

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/roadnet"
)

func buildDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	cfg := dataset.DefaultConfig()
	cfg.Net.BlocksX, cfg.Net.BlocksY = 7, 6
	cfg.HistoryDays = 7
	d, err := dataset.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// allMethods returns every baseline with default settings.
func allMethods() []Method {
	return []Method{Static{}, GlobalScale{}, KNN{}, IDW{}, LabelProp{}}
}

func seedEveryNth(d *dataset.Dataset, n int) map[roadnet.RoadID]float64 {
	truth := d.Truth()
	seeds := make(map[roadnet.RoadID]float64)
	for r := 0; r < d.Net.NumRoads(); r += n {
		seeds[roadnet.RoadID(r)] = truth[r]
	}
	return seeds
}

func TestRequestValidation(t *testing.T) {
	d := buildDataset(t)
	for _, m := range allMethods() {
		if _, err := m.Estimate(&Request{}); err == nil {
			t.Errorf("%s accepted empty request", m.Name())
		}
		if _, err := m.Estimate(&Request{
			Net: d.Net, DB: d.DB, Slot: d.Slot(),
			SeedSpeeds: map[roadnet.RoadID]float64{roadnet.RoadID(d.Net.NumRoads() + 1): 10},
		}); err == nil {
			t.Errorf("%s accepted out-of-range seed", m.Name())
		}
		if _, err := m.Estimate(&Request{
			Net: d.Net, DB: d.DB, Slot: d.Slot(),
			SeedSpeeds: map[roadnet.RoadID]float64{0: -5},
		}); err == nil {
			t.Errorf("%s accepted negative seed speed", m.Name())
		}
	}
}

func TestAllMethodsProducePhysicalSpeeds(t *testing.T) {
	d := buildDataset(t)
	req := &Request{Net: d.Net, DB: d.DB, Slot: d.Slot(), SeedSpeeds: seedEveryNth(d, 7)}
	for _, m := range allMethods() {
		est, err := m.Estimate(req)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if len(est) != d.Net.NumRoads() {
			t.Fatalf("%s returned %d speeds", m.Name(), len(est))
		}
		for r, v := range est {
			if v < 0 || v > 60 || math.IsNaN(v) {
				t.Fatalf("%s: road %d speed %v", m.Name(), r, v)
			}
		}
	}
}

func TestSeedsPassThrough(t *testing.T) {
	d := buildDataset(t)
	seeds := seedEveryNth(d, 11)
	req := &Request{Net: d.Net, DB: d.DB, Slot: d.Slot(), SeedSpeeds: seeds}
	for _, m := range allMethods() {
		est, err := m.Estimate(req)
		if err != nil {
			t.Fatal(err)
		}
		for road, speed := range seeds {
			if est[road] != speed {
				t.Errorf("%s: seed %d estimate %v, want exact %v", m.Name(), road, est[road], speed)
			}
		}
	}
}

func TestStaticIgnoresSeeds(t *testing.T) {
	d := buildDataset(t)
	reqNone := &Request{Net: d.Net, DB: d.DB, Slot: d.Slot()}
	reqSeeds := &Request{Net: d.Net, DB: d.DB, Slot: d.Slot(), SeedSpeeds: seedEveryNth(d, 5)}
	a, err := Static{}.Estimate(reqNone)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Static{}.Estimate(reqSeeds)
	if err != nil {
		t.Fatal(err)
	}
	for r := range a {
		if _, isSeed := reqSeeds.SeedSpeeds[roadnet.RoadID(r)]; isSeed {
			continue
		}
		if a[r] != b[r] {
			t.Fatalf("static non-seed estimate changed with seeds at road %d", r)
		}
	}
}

func TestGlobalScaleTracksCongestion(t *testing.T) {
	d := buildDataset(t)
	// Seeds reporting 80% of historical mean must drag every estimate to
	// 0.8× the static estimate.
	seeds := make(map[roadnet.RoadID]float64)
	for r := 0; r < d.Net.NumRoads(); r += 9 {
		if mean, ok := d.DB.Mean(roadnet.RoadID(r), d.Slot()); ok {
			seeds[roadnet.RoadID(r)] = 0.8 * mean
		}
	}
	static, err := Static{}.Estimate(&Request{Net: d.Net, DB: d.DB, Slot: d.Slot()})
	if err != nil {
		t.Fatal(err)
	}
	scaled, err := GlobalScale{}.Estimate(&Request{Net: d.Net, DB: d.DB, Slot: d.Slot(), SeedSpeeds: seeds})
	if err != nil {
		t.Fatal(err)
	}
	for r := range scaled {
		if _, isSeed := seeds[roadnet.RoadID(r)]; isSeed || static[r] == 0 {
			continue
		}
		want := 0.8 * static[r]
		if math.Abs(scaled[r]-want) > 1e-6 {
			t.Fatalf("road %d: globalscale %v, want %v", r, scaled[r], want)
		}
	}
}

func TestKNNUsesNearestSeed(t *testing.T) {
	d := buildDataset(t)
	// Single seed at very low rel: with K=1 every road copies its rel.
	var seedRoad roadnet.RoadID
	mean, ok := d.DB.Mean(seedRoad, d.Slot())
	if !ok {
		t.Skip("road 0 has no history")
	}
	seeds := map[roadnet.RoadID]float64{seedRoad: 0.5 * mean}
	est, err := KNN{K: 1}.Estimate(&Request{Net: d.Net, DB: d.DB, Slot: d.Slot(), SeedSpeeds: seeds})
	if err != nil {
		t.Fatal(err)
	}
	static, _ := Static{}.Estimate(&Request{Net: d.Net, DB: d.DB, Slot: d.Slot()})
	for r := range est {
		if roadnet.RoadID(r) == seedRoad || static[r] == 0 {
			continue
		}
		if math.Abs(est[r]-0.5*static[r]) > 1e-6 {
			t.Fatalf("road %d: knn %v, want half of static %v", r, est[r], static[r])
		}
	}
}

func TestIDWFallsBackOutsideRadius(t *testing.T) {
	d := buildDataset(t)
	var seedRoad roadnet.RoadID
	mean, ok := d.DB.Mean(seedRoad, d.Slot())
	if !ok {
		t.Skip("road 0 has no history")
	}
	seeds := map[roadnet.RoadID]float64{seedRoad: 0.5 * mean}
	est, err := IDW{MaxRadius: 100}.Estimate(&Request{Net: d.Net, DB: d.DB, Slot: d.Slot(), SeedSpeeds: seeds})
	if err != nil {
		t.Fatal(err)
	}
	static, _ := Static{}.Estimate(&Request{Net: d.Net, DB: d.DB, Slot: d.Slot()})
	// Far roads revert to the historical mean.
	far := 0
	for r := range est {
		if roadnet.RoadID(r) != seedRoad && est[r] == static[r] && static[r] > 0 {
			far++
		}
	}
	if far < d.Net.NumRoads()/2 {
		t.Errorf("only %d roads fell back to static outside a 100 m radius", far)
	}
}

func TestLabelPropPullsNeighboursTowardSeed(t *testing.T) {
	d := buildDataset(t)
	var seedRoad roadnet.RoadID = 10
	mean, ok := d.DB.Mean(seedRoad, d.Slot())
	if !ok {
		t.Skip("road 10 has no history")
	}
	seeds := map[roadnet.RoadID]float64{seedRoad: 0.4 * mean}
	est, err := LabelProp{}.Estimate(&Request{Net: d.Net, DB: d.DB, Slot: d.Slot(), SeedSpeeds: seeds})
	if err != nil {
		t.Fatal(err)
	}
	static, _ := Static{}.Estimate(&Request{Net: d.Net, DB: d.DB, Slot: d.Slot()})
	for _, nb := range d.Net.Adjacent(seedRoad) {
		if static[nb] == 0 {
			continue
		}
		if est[nb] >= static[nb] {
			t.Errorf("neighbour %d not pulled below static: %v vs %v", nb, est[nb], static[nb])
		}
	}
}

func TestSeededMethodsBeatStatic(t *testing.T) {
	// With dense, perfectly accurate seeds, every seed-using method must
	// beat the static baseline on MAE over non-seed roads.
	d := buildDataset(t)
	_, truth := d.NextTruth()
	seeds := make(map[roadnet.RoadID]float64)
	for r := 0; r < d.Net.NumRoads(); r += 4 {
		seeds[roadnet.RoadID(r)] = truth[r]
	}
	req := &Request{Net: d.Net, DB: d.DB, Slot: d.Slot(), SeedSpeeds: seeds}
	mae := func(est []float64) float64 {
		var sum float64
		var n int
		for r := range est {
			if _, isSeed := seeds[roadnet.RoadID(r)]; isSeed || est[r] == 0 {
				continue
			}
			sum += math.Abs(est[r] - truth[r])
			n++
		}
		return sum / float64(n)
	}
	static, err := Static{}.Estimate(req)
	if err != nil {
		t.Fatal(err)
	}
	staticMAE := mae(static)
	for _, m := range []Method{GlobalScale{}, KNN{}, IDW{}, LabelProp{}} {
		est, err := m.Estimate(req)
		if err != nil {
			t.Fatal(err)
		}
		if got := mae(est); got >= staticMAE {
			t.Errorf("%s MAE %.3f not below static %.3f", m.Name(), got, staticMAE)
		}
	}
}

// TestMethodsRepeatable: every method answers 30 repeats of one request bit
// for bit. Sums over the seeds run in ascending road order and KNN breaks
// distance ties by road ID, so the seed map's iteration order decides
// nothing.
func TestMethodsRepeatable(t *testing.T) {
	d := buildDataset(t)
	req := &Request{Net: d.Net, DB: d.DB, Slot: d.Slot(), SeedSpeeds: seedEveryNth(d, 7)}
	for _, m := range allMethods() {
		first, err := m.Estimate(req)
		if err != nil {
			t.Fatal(err)
		}
		differ := 0
		for range 29 {
			got, err := m.Estimate(req)
			if err != nil {
				t.Fatal(err)
			}
			for r := range got {
				if math.Float64bits(got[r]) != math.Float64bits(first[r]) {
					differ++
				}
			}
		}
		if differ > 0 {
			t.Errorf("%s: %d road-answers over 29 repeats differ from the first answer", m.Name(), differ)
		}
	}
}
