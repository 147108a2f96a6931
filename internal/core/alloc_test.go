package core

import (
	"context"
	"testing"

	"repro/internal/roadnet"
)

// TestFuseTrendsAllocs pins the seed-fusion loop at zero allocations: given
// caller-provided output slices, fusing the MRF posterior with the
// pre-regression and seed evidence must only write in place. The estimate
// round runs this fusion once per request over every road, so a single
// allocation here becomes O(requests) garbage.
func TestFuseTrendsAllocs(t *testing.T) {
	const n = 256
	v := &View{}
	pUp := make([]float64, n)
	trendUp := make([]bool, n)
	trendPUp := make([]float64, n)
	preRels := make([]float64, n)
	for i := 0; i < n; i++ {
		trendPUp[i] = float64(i%100) / 100
		preRels[i] = float64((i*7)%100)/50 - 1
	}
	seedRels := map[roadnet.RoadID]float64{3: 0.8, 77: -0.4, 200: 0.1}
	allocs := testing.AllocsPerRun(100, func() {
		v.fuseTrendsInto(pUp, trendUp, trendPUp, preRels, seedRels)
	})
	if allocs != 0 {
		t.Fatalf("seed-fusion loop allocates %.1f times per round, want 0", allocs)
	}
}

// The estimate round's allocation budget on the 8×6-block city:
// estimateAllocsBaseline allocations, the count recorded when the budget was
// last set (108; 108–110 under the race detector, whose sync.Pool drops some
// releases), plus estimateAllocsHeadroom. Allocation counts are
// near-deterministic, unlike timings, so 10% absorbs map-growth jitter
// without letting a per-road allocation slip through.
const (
	estimateAllocsBaseline = 108
	estimateAllocsHeadroom = 0.10
)

// TestEstimateRoundAllocs caps the allocations of one warm estimate round on
// the served options, with every 10th road of the 8×6-block city a seed. It
// catches what the hotalloc lint pass and mrf's TestBPInferWarmPathAllocs
// cannot see: allocations added through interfaces, stdlib calls or map
// growth. No part of the round fans out, so the count is the same on every
// machine.
func TestEstimateRoundAllocs(t *testing.T) {
	ctx := context.Background()
	d := buildCity(t, 8, 6)
	v, err := NewView(d.Net, d.DB, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	slot, truth := d.NextTruth()
	seeds := spreadSeeds(d, truth, 10)
	// Warm-up rounds fill the BP run-state pool and any lazily grown state, so
	// the count is the steady serving state's, not first-run setup's.
	for i := 0; i < 3; i++ {
		if _, err := v.Estimate(ctx, slot, seeds); err != nil {
			t.Fatal(err)
		}
	}
	var roundErr error
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := v.Estimate(ctx, slot, seeds); err != nil {
			roundErr = err
		}
	})
	if roundErr != nil {
		t.Fatal(roundErr)
	}
	limit := estimateAllocsBaseline * (1 + estimateAllocsHeadroom)
	t.Logf("%d roads: %.0f allocations per round (limit %.0f)", d.Net.NumRoads(), allocs, limit)
	if allocs > limit {
		t.Errorf("estimate round allocates %.0f times, over the %d baseline +%.0f%% (%.0f)",
			allocs, estimateAllocsBaseline, estimateAllocsHeadroom*100, limit)
	}
}

// BenchmarkEstimate reports the warm estimate round's time and allocs/op on
// a larger city than TestEstimateRoundAllocs gates; the CI bench-smoke run
// prints both.
func BenchmarkEstimate(b *testing.B) {
	d, est := buildEstimator(b)
	slot, truth := d.NextTruth()
	seedSpeeds := map[roadnet.RoadID]float64{}
	for r := 0; r < d.Net.NumRoads(); r += 10 {
		seedSpeeds[roadnet.RoadID(r)] = truth[roadnet.RoadID(r)]
	}
	ctx := context.Background()
	if _, err := est.Estimate(ctx, slot, seedSpeeds); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.Estimate(ctx, slot, seedSpeeds); err != nil {
			b.Fatal(err)
		}
	}
}
