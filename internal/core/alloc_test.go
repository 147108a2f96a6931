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
	v := &View{preTrendNoise: 0.2, seedTrendNoise: 0.1}
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

// BenchmarkEstimate is the allocs/op reference the benchrunner -alloc-gate
// tracks exactly (via testing.AllocsPerRun) against BENCH_alloc_baseline.json.
// ReportAllocs keeps allocs/op in the CI bench-smoke output so a regression is
// visible there even before the gate runs.
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
