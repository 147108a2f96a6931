package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/baselines"
	"repro/internal/crowd"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/mrf"
	"repro/internal/roadnet"
)

func buildEstimator(t testing.TB) (*dataset.Dataset, *View) {
	t.Helper()
	cfg := dataset.DefaultConfig()
	cfg.Net.BlocksX, cfg.Net.BlocksY = 8, 7
	cfg.HistoryDays = 10
	cfg.CoveragePerSlot = 0.65
	d, err := dataset.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	est, err := NewView(d.Net, d.DB, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return d, est
}

func TestNewValidation(t *testing.T) {
	d, _ := buildEstimator(t)
	if _, err := NewView(nil, d.DB, DefaultOptions()); err == nil {
		t.Error("nil network accepted")
	}
	if _, err := NewView(d.Net, nil, DefaultOptions()); err == nil {
		t.Error("nil history accepted")
	}
	bad := DefaultOptions()
	bad.Corr.MinAgreement = 0.4
	if _, err := NewView(d.Net, d.DB, bad); err == nil {
		t.Error("invalid corr config accepted")
	}
}

func TestAccessors(t *testing.T) {
	d, v := buildEstimator(t)
	if v.Net() != d.Net || v.DB() != d.DB {
		t.Error("accessors wrong")
	}
	if v.Graph() == nil || v.HLM() == nil || v.Problem() == nil {
		t.Error("nil components")
	}
	if v.Version() != 1 {
		t.Errorf("fresh view version = %d, want 1", v.Version())
	}
	if v.ObservationCount() != d.DB.ObservationCount() {
		t.Errorf("observation count = %d, want %d", v.ObservationCount(), d.DB.ObservationCount())
	}
	if v.BuiltAt().IsZero() {
		t.Error("BuiltAt is zero")
	}
}

func TestSelectSeeds(t *testing.T) {
	ctx := context.Background()
	_, est := buildEstimator(t)
	k := 20
	seeds, err := est.SelectSeeds(ctx, k)
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) != k {
		t.Fatalf("got %d seeds", len(seeds))
	}
	if b := est.SeedBenefit(seeds); b <= 0 {
		t.Errorf("benefit = %v", b)
	}
	// The selected set beats a random set.
	rnd, err := (randomSelector{seed: 9}).selectIDs(est, k)
	if err != nil {
		t.Fatal(err)
	}
	if est.SeedBenefit(seeds) <= est.SeedBenefit(rnd) {
		t.Error("selected seeds no better than random")
	}
}

// randomSelector picks k pseudo-random distinct roads for comparison.
type randomSelector struct{ seed int64 }

func (rs randomSelector) selectIDs(e *View, k int) ([]roadnet.RoadID, error) {
	n := e.Net().NumRoads()
	out := make([]roadnet.RoadID, 0, k)
	step := n/k + 1
	for r := int(rs.seed) % n; len(out) < k; r = (r + step) % n {
		out = append(out, roadnet.RoadID(r))
	}
	return out, nil
}

func TestEstimateValidation(t *testing.T) {
	ctx := context.Background()
	d, est := buildEstimator(t)
	if _, err := est.Estimate(ctx, d.Slot(), map[roadnet.RoadID]float64{roadnet.RoadID(d.Net.NumRoads()): 5}); err == nil {
		t.Error("out-of-range seed accepted")
	}
	if _, err := est.Estimate(ctx, d.Slot(), map[roadnet.RoadID]float64{0: -1}); err == nil {
		t.Error("negative seed speed accepted")
	}
}

func TestEstimateShapes(t *testing.T) {
	ctx := context.Background()
	d, est := buildEstimator(t)
	seeds, err := est.SelectSeeds(ctx, 15)
	if err != nil {
		t.Fatal(err)
	}
	slot, truth := d.NextTruth()
	seedSpeeds := map[roadnet.RoadID]float64{}
	for _, s := range seeds {
		seedSpeeds[s] = truth[s]
	}
	res, err := est.Estimate(ctx, slot, seedSpeeds)
	if err != nil {
		t.Fatal(err)
	}
	n := d.Net.NumRoads()
	if len(res.Speeds) != n || len(res.Rels) != n || len(res.TrendUp) != n || len(res.PUp) != n {
		t.Fatal("result slices have wrong lengths")
	}
	if res.Slot != slot {
		t.Errorf("slot = %d", res.Slot)
	}
	for r := 0; r < n; r++ {
		if res.Speeds[r] < 0 || res.Speeds[r] > 45 || math.IsNaN(res.Speeds[r]) {
			t.Fatalf("road %d speed %v", r, res.Speeds[r])
		}
		if res.PUp[r] < 0 || res.PUp[r] > 1 {
			t.Fatalf("road %d PUp %v", r, res.PUp[r])
		}
	}
	// Seeds are reproduced (modulo the rel clamp).
	for _, s := range seeds {
		if res.Speeds[s] == 0 {
			continue
		}
		if math.Abs(res.Speeds[s]-truth[s])/truth[s] > 0.35 {
			t.Errorf("seed %d speed %v far from observed %v", s, res.Speeds[s], truth[s])
		}
	}
}

func TestEstimateBeatsStaticAndKNN(t *testing.T) {
	ctx := context.Background()
	// The headline claim, scaled down: with 10% seeds over several slots,
	// TrendSpeed's MAE must beat static and KNN baselines.
	d, est := buildEstimator(t)
	n := d.Net.NumRoads()
	k := n / 10
	seeds, err := est.SelectSeeds(ctx, k)
	if err != nil {
		t.Fatal(err)
	}
	var ours, static, knn eval.Accumulator
	for round := 0; round < 6; round++ {
		slot, truth := d.NextTruth()
		seedSpeeds := map[roadnet.RoadID]float64{}
		exclude := map[roadnet.RoadID]bool{}
		for _, s := range seeds {
			seedSpeeds[s] = truth[s]
			exclude[s] = true
		}
		res, err := est.Estimate(ctx, slot, seedSpeeds)
		if err != nil {
			t.Fatal(err)
		}
		ours.AddSlice(res.Speeds, truth, exclude)
		req := &baselines.Request{Net: d.Net, DB: d.DB, Slot: slot, SeedSpeeds: seedSpeeds}
		st, err := baselines.Static{}.Estimate(req)
		if err != nil {
			t.Fatal(err)
		}
		static.AddSlice(st, truth, exclude)
		kn, err := baselines.KNN{}.Estimate(req)
		if err != nil {
			t.Fatal(err)
		}
		knn.AddSlice(kn, truth, exclude)
	}
	mOurs, mStatic, mKNN := ours.Metrics(), static.Metrics(), knn.Metrics()
	t.Logf("ours: %v", mOurs)
	t.Logf("static: %v", mStatic)
	t.Logf("knn: %v", mKNN)
	if mOurs.MAE >= mStatic.MAE {
		t.Errorf("TrendSpeed MAE %.3f not below static %.3f", mOurs.MAE, mStatic.MAE)
	}
	if mOurs.MAE >= mKNN.MAE {
		t.Errorf("TrendSpeed MAE %.3f not below KNN %.3f", mOurs.MAE, mKNN.MAE)
	}
}

func TestTrendInferenceBeatsPriorOnly(t *testing.T) {
	ctx := context.Background()
	d, est := buildEstimator(t)
	n := d.Net.NumRoads()
	seeds, err := est.SelectSeeds(ctx, n/10)
	if err != nil {
		t.Fatal(err)
	}
	priorView := viewWithEngine(t, d, mrf.PriorOnly{})
	if err := priorView.Prepare(ctx, seeds); err != nil {
		t.Fatal(err)
	}
	var bpCorrect, priorCorrect, histCorrect, total int
	for round := 0; round < 5; round++ {
		slot, truth := d.NextTruth()
		seedSpeeds := map[roadnet.RoadID]float64{}
		exclude := map[roadnet.RoadID]bool{}
		for _, s := range seeds {
			seedSpeeds[s] = truth[s]
			exclude[s] = true
		}
		trueUp, okTrend := eval.TrueTrends(truth, func(r roadnet.RoadID) (float64, bool) {
			return d.DB.Mean(r, slot)
		})
		resBP, err := est.Estimate(ctx, slot, seedSpeeds)
		if err != nil {
			t.Fatal(err)
		}
		resPrior, err := priorView.Estimate(ctx, slot, seedSpeeds)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < n; r++ {
			if exclude[roadnet.RoadID(r)] || !okTrend[r] {
				continue
			}
			total++
			if resBP.TrendUp[r] == trueUp[r] {
				bpCorrect++
			}
			if resPrior.TrendUp[r] == trueUp[r] {
				priorCorrect++
			}
			if (d.DB.PUp(roadnet.RoadID(r), slot) >= 0.5) == trueUp[r] {
				histCorrect++
			}
		}
	}
	bpAcc := float64(bpCorrect) / float64(total)
	priorAcc := float64(priorCorrect) / float64(total)
	histAcc := float64(histCorrect) / float64(total)
	t.Logf("trend accuracy: bp=%.3f prior-engine=%.3f history-only=%.3f (n=%d)", bpAcc, priorAcc, histAcc, total)
	// The claim under test: seeded trend inference clearly beats the
	// history-only classifier (the paper's motivation for crowdsourcing).
	if bpAcc < histAcc+0.10 {
		t.Errorf("BP trend accuracy %.3f not clearly above history-only %.3f", bpAcc, histAcc)
	}
	// The graph layer must not hurt relative to the prior-only engine (both
	// are fused with the magnitude evidence, so near-ties are expected).
	if bpAcc < priorAcc-0.02 {
		t.Errorf("BP trend accuracy %.3f clearly below prior-only %.3f", bpAcc, priorAcc)
	}
	if bpAcc < 0.6 {
		t.Errorf("BP trend accuracy %.3f too close to chance", bpAcc)
	}
}

func TestHierarchyAblation(t *testing.T) {
	ctx := context.Background()
	// Hierarchical propagation should not lose to flat mode over several
	// slots (it usually wins; allow a tiny tolerance for noise).
	d, est := buildEstimator(t)
	n := d.Net.NumRoads()
	seeds, err := est.SelectSeeds(ctx, n/8)
	if err != nil {
		t.Fatal(err)
	}
	var hier, flat eval.Accumulator
	for round := 0; round < 5; round++ {
		slot, truth := d.NextTruth()
		seedSpeeds := map[roadnet.RoadID]float64{}
		exclude := map[roadnet.RoadID]bool{}
		for _, s := range seeds {
			seedSpeeds[s] = truth[s]
			exclude[s] = true
		}
		h, err := est.Estimate(ctx, slot, seedSpeeds)
		if err != nil {
			t.Fatal(err)
		}
		f, err := est.EstimateWith(ctx, slot, seedSpeeds, EstimateOptions{FlatHLM: true})
		if err != nil {
			t.Fatal(err)
		}
		hier.AddSlice(h.Speeds, truth, exclude)
		flat.AddSlice(f.Speeds, truth, exclude)
	}
	mH, mF := hier.Metrics(), flat.Metrics()
	t.Logf("hierarchical: %v, flat: %v", mH, mF)
	if mH.MAE > mF.MAE*1.05 {
		t.Errorf("hierarchical MAE %.3f clearly worse than flat %.3f", mH.MAE, mF.MAE)
	}
}

func TestEstimateFromCrowd(t *testing.T) {
	ctx := context.Background()
	d, est := buildEstimator(t)
	seeds, err := est.SelectSeeds(ctx, 12)
	if err != nil {
		t.Fatal(err)
	}
	platform, err := crowd.New(crowd.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	slot, truth := d.NextTruth()
	reports, stats, err := platform.QuerySeeds(seeds, truth)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Queries == 0 {
		t.Fatal("no crowd queries issued")
	}
	res, err := est.EstimateFromCrowd(ctx, slot, reports)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Speeds) != d.Net.NumRoads() {
		t.Fatal("wrong result size")
	}
}

func TestEstimatorDeterminism(t *testing.T) {
	ctx := context.Background()
	d, est := buildEstimator(t)
	seeds, _ := est.SelectSeeds(ctx, 10)
	slot, truth := d.NextTruth()
	seedSpeeds := map[roadnet.RoadID]float64{}
	for _, s := range seeds {
		seedSpeeds[s] = truth[s]
	}
	a, err := est.Estimate(ctx, slot, seedSpeeds)
	if err != nil {
		t.Fatal(err)
	}
	b, err := est.Estimate(ctx, slot, seedSpeeds)
	if err != nil {
		t.Fatal(err)
	}
	for r := range a.Speeds {
		if a.Speeds[r] != b.Speeds[r] {
			t.Fatalf("estimate differs at road %d across identical calls", r)
		}
	}
}

func TestTrendFreeOption(t *testing.T) {
	ctx := context.Background()
	d, est := buildEstimator(t)
	slot, truth := d.NextTruth()
	seedSpeeds := map[roadnet.RoadID]float64{0: truth[0], 40: truth[40]}
	res, err := est.EstimateWith(ctx, slot, seedSpeeds, EstimateOptions{TrendFree: true})
	if err != nil {
		t.Fatal(err)
	}
	// Trend-free results carry uninformative marginals and speeds in range.
	for r := 0; r < d.Net.NumRoads(); r++ {
		if res.PUp[r] != 0.5 {
			t.Fatalf("road %d PUp = %v in trend-free mode", r, res.PUp[r])
		}
		if res.Speeds[r] < 0 || res.Speeds[r] > 45 {
			t.Fatalf("road %d speed %v", r, res.Speeds[r])
		}
	}
	// TrendUp mirrors the sign of the relative estimate.
	for r := 0; r < d.Net.NumRoads(); r++ {
		if res.TrendUp[r] != (res.Rels[r] >= 1) {
			t.Fatalf("road %d trend bit inconsistent with rel", r)
		}
	}
}

func TestNoSeedModelOption(t *testing.T) {
	ctx := context.Background()
	d, est := buildEstimator(t)
	seeds, err := est.SelectSeeds(ctx, 20)
	if err != nil {
		t.Fatal(err)
	}
	slot, truth := d.NextTruth()
	seedSpeeds := map[roadnet.RoadID]float64{}
	for _, s := range seeds {
		seedSpeeds[s] = truth[s]
	}
	with, err := est.Estimate(ctx, slot, seedSpeeds)
	if err != nil {
		t.Fatal(err)
	}
	without, err := est.EstimateWith(ctx, slot, seedSpeeds, EstimateOptions{NoSeedModel: true})
	if err != nil {
		t.Fatal(err)
	}
	differs := 0
	for r := range with.Speeds {
		if with.Speeds[r] != without.Speeds[r] {
			differs++
		}
	}
	if differs == 0 {
		t.Error("NoSeedModel produced identical estimates; the switch is dead")
	}
}

func TestEstimateWithNoSeeds(t *testing.T) {
	ctx := context.Background()
	// An empty crowd round (every worker silent) must still produce a
	// usable, history-driven estimate.
	d, est := buildEstimator(t)
	slot, _ := d.NextTruth()
	res, err := est.Estimate(ctx, slot, nil)
	if err != nil {
		t.Fatal(err)
	}
	nonzero := 0
	for _, v := range res.Speeds {
		if v > 0 {
			nonzero++
		}
	}
	if nonzero < d.Net.NumRoads()*9/10 {
		t.Errorf("only %d roads estimated with no seeds", nonzero)
	}
	res2, err := est.EstimateFromCrowd(ctx, slot, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Speeds) != d.Net.NumRoads() {
		t.Error("EstimateFromCrowd(nil) wrong size")
	}
}

func TestPrepareWithExplicitSeeds(t *testing.T) {
	ctx := context.Background()
	d, est := buildEstimator(t)
	seeds := []roadnet.RoadID{1, 5, 9, 13, 17, 21}
	if err := est.Prepare(ctx, seeds); err != nil {
		t.Fatal(err)
	}
	slot, truth := d.NextTruth()
	seedSpeeds := map[roadnet.RoadID]float64{}
	for _, s := range seeds {
		seedSpeeds[s] = truth[s]
	}
	if _, err := est.Estimate(ctx, slot, seedSpeeds); err != nil {
		t.Fatal(err)
	}
	if err := est.Prepare(ctx, []roadnet.RoadID{roadnet.RoadID(d.Net.NumRoads() + 1)}); err == nil {
		t.Error("out-of-range seed accepted by Prepare")
	}
}
