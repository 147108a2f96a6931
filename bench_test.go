package speedest

// Benchmarks: one per table/figure of the reconstructed evaluation (see
// DESIGN.md §4 and EXPERIMENTS.md). Each benchmark exercises the code path
// that regenerates its artefact at a reduced scale, so
//
//	go test -bench=. -benchmem
//
// measures the system's hot paths while cmd/benchrunner produces the full
// tables. Custom metrics (MAE, trend accuracy, benefit) are reported via
// b.ReportMetric so benchmark output doubles as a quality smoke check.

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/dataset"
	"repro/internal/mrf"
	"repro/internal/roadnet"
	"repro/internal/seedsel"
)

// benchFixture is the shared, lazily-built benchmark dataset and the frozen
// view specialised to its seeds.
type benchFixture struct {
	d     *dataset.Dataset
	est   *core.View
	seeds []roadnet.RoadID // 10% budget, est's seed set
	snaps []benchSnap
}

type benchSnap struct {
	slot  int
	truth []float64
}

var (
	fixtureOnce sync.Once
	fixture     *benchFixture
)

// getFixture builds the benchmark city once per process.
func getFixture(b *testing.B) *benchFixture {
	ctx := context.Background()
	b.Helper()
	fixtureOnce.Do(func() {
		cfg := dataset.DefaultConfig()
		cfg.Net.BlocksX, cfg.Net.BlocksY = 12, 10
		cfg.HistoryDays = 7
		d, err := dataset.Build(cfg)
		if err != nil {
			panic(err)
		}
		est, err := core.NewView(d.Net, d.DB, core.DefaultOptions())
		if err != nil {
			panic(err)
		}
		est, seeds, err := est.SelectSeeds(ctx, d.Net.NumRoads()/10)
		if err != nil {
			panic(err)
		}
		f := &benchFixture{d: d, est: est, seeds: seeds}
		for i := 0; i < 4; i++ {
			slot, truth := d.NextTruth()
			cp := make([]float64, len(truth))
			copy(cp, truth)
			f.snaps = append(f.snaps, benchSnap{slot: slot, truth: cp})
		}
		fixture = f
	})
	return fixture
}

func (f *benchFixture) reports(s benchSnap) map[roadnet.RoadID]float64 {
	out := make(map[roadnet.RoadID]float64, len(f.seeds))
	for _, sd := range f.seeds {
		out[sd] = s.truth[sd]
	}
	return out
}

// mae scores non-seed roads.
func (f *benchFixture) mae(est []float64, s benchSnap) float64 {
	isSeed := map[roadnet.RoadID]bool{}
	for _, sd := range f.seeds {
		isSeed[sd] = true
	}
	var sum float64
	var n int
	for r := range est {
		if isSeed[roadnet.RoadID(r)] || est[r] <= 0 {
			continue
		}
		sum += math.Abs(est[r] - s.truth[r])
		n++
	}
	return sum / float64(n)
}

// BenchmarkTableT1DatasetBuild regenerates Table 1's substrate: dataset
// assembly (network generation + traffic simulation + history sampling).
func BenchmarkTableT1DatasetBuild(b *testing.B) {
	cfg := dataset.DefaultConfig()
	cfg.Net.BlocksX, cfg.Net.BlocksY = 8, 7
	cfg.HistoryDays = 3
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d, err := dataset.Build(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if d.Net.NumRoads() == 0 {
			b.Fatal("empty network")
		}
	}
}

// BenchmarkServerSetup times what speedserver -city default does before it
// listens: build the 884-road, 14-day default dataset, then the store's
// first model (correlation graph, HLM, seed-selection preparation).
func BenchmarkServerSetup(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d, err := dataset.Build(dataset.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		store, err := core.NewStore(d.Net, d.DB, core.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		store.Close()
	}
}

// BenchmarkEstimate is the hot-path headline: one full estimation round on
// the prepared fixture (trend inference + hierarchical regression + seed
// fusion), with allocs/op as the tracked regression number. Table/figure
// benchmarks below add the quality metrics; this one stays a pure cost probe.
func BenchmarkEstimate(b *testing.B) {
	ctx := context.Background()
	f := getFixture(b)
	s := f.snaps[0]
	reports := f.reports(s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.est.Estimate(ctx, s.slot, reports); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimateStoreRebuilt measures the same hot path served through a
// Store that already survived one ingest→rebuild→swap cycle: the lifecycle
// layer's per-round overhead is one atomic pointer load, and this keeps the
// post-swap model's estimate cost on the same regression track as the
// frozen-view number above.
func BenchmarkEstimateStoreRebuilt(b *testing.B) {
	ctx := context.Background()
	f := getFixture(b)
	st, err := core.NewStore(f.d.Net, f.d.DB, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := st.SelectSeeds(ctx, len(f.seeds)); err != nil {
		b.Fatal(err)
	}
	s := f.snaps[0]
	reports := f.reports(s)
	obsIn := make([]core.Observation, 0, len(f.seeds))
	for _, sd := range f.seeds {
		obsIn = append(obsIn, core.Observation{Road: sd, Slot: s.slot, Speed: s.truth[sd]})
	}
	if _, err := st.Ingest(obsIn...); err != nil {
		b.Fatal(err)
	}
	if _, err := st.Rebuild(ctx); err != nil {
		b.Fatal(err)
	}
	if v := st.View().Version(); v != 2 {
		b.Fatalf("store version %d, want 2", v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := st.View().Estimate(ctx, s.slot, reports)
		if err != nil {
			b.Fatal(err)
		}
		if res.ModelVersion != 2 {
			b.Fatalf("round ran on version %d", res.ModelVersion)
		}
	}
}

// BenchmarkTableT2OverallComparison regenerates Table 2's core row: one full
// TrendSpeed estimation round, reporting MAE.
func BenchmarkTableT2OverallComparison(b *testing.B) {
	ctx := context.Background()
	f := getFixture(b)
	b.ReportAllocs()
	var lastMAE float64
	for i := 0; i < b.N; i++ {
		s := f.snaps[i%len(f.snaps)]
		res, err := f.est.Estimate(ctx, s.slot, f.reports(s))
		if err != nil {
			b.Fatal(err)
		}
		lastMAE = f.mae(res.Speeds, s)
	}
	b.ReportMetric(lastMAE, "MAE(m/s)")
}

// BenchmarkFigF6AccuracyVsBudget regenerates Figure 6's sweep axis: seed
// selection plus estimation at three budgets.
func BenchmarkFigF6AccuracyVsBudget(b *testing.B) {
	ctx := context.Background()
	f := getFixture(b)
	budgets := []float64{0.02, 0.10, 0.20}
	for _, budget := range budgets {
		b.Run(fmt.Sprintf("K=%.0f%%", budget*100), func(b *testing.B) {
			k := int(budget * float64(f.d.Net.NumRoads()))
			if k < 1 {
				k = 1
			}
			v, seeds, err := f.est.SelectSeeds(ctx, k)
			if err != nil {
				b.Fatal(err)
			}
			s := f.snaps[0]
			reports := make(map[roadnet.RoadID]float64, len(seeds))
			for _, sd := range seeds {
				reports[sd] = s.truth[sd]
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := v.Estimate(ctx, s.slot, reports); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigF6Baselines measures the baselines Figure 6 compares against.
func BenchmarkFigF6Baselines(b *testing.B) {
	f := getFixture(b)
	s := f.snaps[0]
	req := &baselines.Request{Net: f.d.Net, DB: f.d.DB, Slot: s.slot, SeedSpeeds: f.reports(s)}
	for _, m := range []baselines.Method{baselines.Static{}, baselines.KNN{}, baselines.IDW{}, baselines.LabelProp{}} {
		b.Run(m.Name(), func(b *testing.B) {
			b.ReportAllocs()
			var lastMAE float64
			for i := 0; i < b.N; i++ {
				est, err := m.Estimate(req)
				if err != nil {
					b.Fatal(err)
				}
				lastMAE = f.mae(est, s)
			}
			b.ReportMetric(lastMAE, "MAE(m/s)")
		})
	}
}

// BenchmarkFigF7TimeOfDay regenerates Figure 7's axis: estimation cost per
// slot including the per-slot setup (trend priors, evidence).
func BenchmarkFigF7TimeOfDay(b *testing.B) {
	ctx := context.Background()
	f := getFixture(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := f.snaps[i%len(f.snaps)]
		if _, err := f.est.Estimate(ctx, s.slot, f.reports(s)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigF8SeedQuality regenerates Figure 8's rows: each selector on
// the prepared problem, reporting the benefit it achieves.
func BenchmarkFigF8SeedQuality(b *testing.B) {
	f := getFixture(b)
	k := f.d.Net.NumRoads() / 10
	for _, sel := range []seedsel.Selector{seedsel.Lazy{}, seedsel.Partition{Parts: 8}, seedsel.Degree{}, seedsel.PageRank{}, seedsel.Random{Seed: 1}} {
		b.Run(sel.Name(), func(b *testing.B) {
			var benefit float64
			for i := 0; i < b.N; i++ {
				seeds, err := sel.Select(f.est.Problem(), k)
				if err != nil {
					b.Fatal(err)
				}
				benefit = f.est.SeedBenefit(seeds)
			}
			b.ReportMetric(benefit, "benefit")
		})
	}
}

// BenchmarkFigF9SeedSelection regenerates Figure 9: plain greedy vs lazy
// greedy vs partition wall time at a 10% budget (the paper's two-orders-of-
// magnitude efficiency headline is the greedy/lazy ratio).
func BenchmarkFigF9SeedSelection(b *testing.B) {
	f := getFixture(b)
	k := f.d.Net.NumRoads() / 10
	for _, sel := range []seedsel.Selector{seedsel.Greedy{}, seedsel.Lazy{}, seedsel.Partition{Parts: 8}} {
		b.Run(sel.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sel.Select(f.est.Problem(), k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigF10InferenceScaling regenerates Figure 10's axis: training and
// estimation at two network scales.
func BenchmarkFigF10InferenceScaling(b *testing.B) {
	ctx := context.Background()
	for _, sz := range []struct{ bx, by int }{{6, 5}, {10, 8}} {
		cfg := dataset.DefaultConfig()
		cfg.Net.BlocksX, cfg.Net.BlocksY = sz.bx, sz.by
		cfg.HistoryDays = 5
		d, err := dataset.Build(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("train/roads=%d", d.Net.NumRoads()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.NewView(d.Net, d.DB, core.DefaultOptions()); err != nil {
					b.Fatal(err)
				}
			}
		})
		est, err := core.NewView(d.Net, d.DB, core.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		est, seeds, err := est.SelectSeeds(ctx, d.Net.NumRoads()/10)
		if err != nil {
			b.Fatal(err)
		}
		slot, truth := d.NextTruth()
		reports := make(map[roadnet.RoadID]float64, len(seeds))
		for _, s := range seeds {
			reports[s] = truth[s]
		}
		b.Run(fmt.Sprintf("estimate/roads=%d", d.Net.NumRoads()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := est.Estimate(ctx, slot, reports); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigF11TrendEngines regenerates Figure 11's rows: the served BP
// engine and the history-only prior, each inside a full estimation round on
// a view built with it and specialised to the fixture's seeds, reporting
// trend accuracy.
func BenchmarkFigF11TrendEngines(b *testing.B) {
	ctx := context.Background()
	f := getFixture(b)
	opts := core.DefaultOptions()
	opts.Engine = mrf.PriorOnly{}
	prior, err := core.NewView(f.d.Net, f.d.DB, opts)
	if err != nil {
		b.Fatal(err)
	}
	if prior, err = prior.WithSeeds(ctx, f.seeds); err != nil {
		b.Fatal(err)
	}
	views := map[string]*core.View{
		"bp":    f.est, // default engine
		"prior": prior,
	}
	for name, v := range views {
		b.Run(name, func(b *testing.B) {
			s := f.snaps[0]
			reports := f.reports(s)
			var acc float64
			for i := 0; i < b.N; i++ {
				res, err := v.Estimate(ctx, s.slot, reports)
				if err != nil {
					b.Fatal(err)
				}
				var ok, total int
				for r := 0; r < f.d.Net.NumRoads(); r++ {
					mean, have := f.d.DB.Mean(roadnet.RoadID(r), s.slot)
					if !have {
						continue
					}
					total++
					if res.TrendUp[r] == (s.truth[r] >= mean) {
						ok++
					}
				}
				acc = float64(ok) / float64(total)
			}
			b.ReportMetric(acc, "trendacc")
		})
	}
}

// BenchmarkAblationA1Trends regenerates ablation A1: full vs trend-free.
func BenchmarkAblationA1Trends(b *testing.B) {
	ctx := context.Background()
	f := getFixture(b)
	for _, tc := range []struct {
		name string
		opts core.EstimateOptions
	}{
		{"with-trends", core.EstimateOptions{}},
		{"trend-free", core.EstimateOptions{TrendFree: true}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			s := f.snaps[0]
			reports := f.reports(s)
			var lastMAE float64
			for i := 0; i < b.N; i++ {
				res, err := f.est.EstimateWith(ctx, s.slot, reports, tc.opts)
				if err != nil {
					b.Fatal(err)
				}
				lastMAE = f.mae(res.Speeds, s)
			}
			b.ReportMetric(lastMAE, "MAE(m/s)")
		})
	}
}

// BenchmarkAblationA2Hierarchy regenerates ablation A2: hierarchical vs
// flat schedule.
func BenchmarkAblationA2Hierarchy(b *testing.B) {
	ctx := context.Background()
	f := getFixture(b)
	for _, tc := range []struct {
		name string
		opts core.EstimateOptions
	}{
		{"hierarchical", core.EstimateOptions{}},
		{"flat", core.EstimateOptions{FlatHLM: true}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			s := f.snaps[0]
			reports := f.reports(s)
			for i := 0; i < b.N; i++ {
				if _, err := f.est.EstimateWith(ctx, s.slot, reports, tc.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationA3CorrGraph regenerates ablation A3's cost axis:
// correlation-graph construction at two thresholds.
func BenchmarkAblationA3CorrGraph(b *testing.B) {
	f := getFixture(b)
	for _, tau := range []float64{0.60, 0.80} {
		b.Run(fmt.Sprintf("tau=%.2f", tau), func(b *testing.B) {
			opts := core.DefaultOptions()
			opts.Corr.MinAgreement = tau
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.NewView(f.d.Net, f.d.DB, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationA4Crowd regenerates ablation A4's substrate: a full
// crowd round (query + aggregate) at the default quality.
func BenchmarkAblationA4Crowd(b *testing.B) {
	f := getFixture(b)
	platform, err := crowd.New(crowd.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	s := f.snaps[0]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := platform.QuerySeeds(f.seeds, s.truth); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRealtimeLoop measures the paper's deployment loop end to end:
// crowd query, trend inference, speed inference — the latency that must fit
// inside one time slot.
func BenchmarkRealtimeLoop(b *testing.B) {
	ctx := context.Background()
	f := getFixture(b)
	platform, err := crowd.New(crowd.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		s := f.snaps[i%len(f.snaps)]
		reports, _, err := platform.QuerySeeds(f.seeds, s.truth)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := f.est.EstimateFromCrowd(ctx, s.slot, reports); err != nil {
			b.Fatal(err)
		}
	}
	if b.N > 0 {
		perRound := time.Since(start) / time.Duration(b.N)
		b.ReportMetric(float64(10*time.Minute)/float64(perRound), "realtime-margin(x)")
	}
}
