package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/roadnet"
	"repro/internal/seedsel"
)

// Context lazily builds and caches the benchmark cities and their trained
// estimators so experiments share the expensive setup.
type Context struct {
	fast   bool
	cities map[string]*city
}

// city bundles one dataset with its trained, unspecialised view.
type city struct {
	name string
	d    *dataset.Dataset
	est  *core.View
}

// NewContext returns an empty context; cities build on first use.
func NewContext(fast bool) *Context {
	return &Context{fast: fast, cities: map[string]*city{}}
}

// evalSlots is the number of evaluation slots per experiment.
func (c *Context) evalSlots() int {
	if c.fast {
		return 3
	}
	return 6
}

// City returns the named city, building it on first use. Names: "B", "T".
func (c *Context) City(name string) *city {
	if got, ok := c.cities[name]; ok {
		return got
	}
	var cfg dataset.Config
	switch name {
	case "B":
		cfg = dataset.BCity()
		if c.fast {
			cfg.Net.BlocksX, cfg.Net.BlocksY = 14, 12
			cfg.HistoryDays = 7
		}
	case "T":
		cfg = dataset.TCity()
		if c.fast {
			cfg.Net.BlocksX, cfg.Net.BlocksY = 10, 8
			cfg.HistoryDays = 7
		}
	default:
		log.Fatalf("unknown city %q", name)
	}
	log.Printf("  building %s-City...", name)
	d, err := dataset.Build(cfg)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("  training estimator over %d roads...", d.Net.NumRoads())
	est, err := core.NewView(d.Net, d.DB, core.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	ct := &city{name: name, d: d, est: est}
	c.cities[name] = ct
	return ct
}

// window captures an evaluation window of ground-truth slots so several
// methods are scored on identical traffic.
type snapshot struct {
	slot  int
	truth []float64
}

func (ct *city) window(slots int) []snapshot {
	out := make([]snapshot, 0, slots)
	for i := 0; i < slots; i++ {
		slot, truth := ct.d.NextTruth()
		cp := make([]float64, len(truth))
		copy(cp, truth)
		out = append(out, snapshot{slot: slot, truth: cp})
	}
	return out
}

// seedsAt selects a budget of seeds on the city and returns the view
// specialised to them with the seeds.
func (ct *city) seedsAt(frac float64) (*core.View, []roadnet.RoadID) {
	k := int(frac * float64(ct.d.Net.NumRoads()))
	if k < 1 {
		k = 1
	}
	v, seeds, err := ct.est.SelectSeeds(context.Background(), k)
	if err != nil {
		log.Fatal(err)
	}
	return v, seeds
}

// withSeeds returns v specialised to seeds (nil: the unspecialised view).
func withSeeds(v *core.View, seeds []roadnet.RoadID) *core.View {
	sv, err := v.WithSeeds(context.Background(), seeds)
	if err != nil {
		log.Fatal(err)
	}
	return sv
}

// perfectReports maps each seed to its true speed (isolates inference
// quality from crowd noise; A4 adds the noise back).
func perfectReports(seeds []roadnet.RoadID, truth []float64) map[roadnet.RoadID]float64 {
	out := make(map[roadnet.RoadID]float64, len(seeds))
	for _, s := range seeds {
		out[s] = truth[s]
	}
	return out
}

// scoreTrendSpeed runs view v over the window and accumulates non-seed MAE.
func scoreTrendSpeed(v *core.View, seeds []roadnet.RoadID, window []snapshot, opts core.EstimateOptions) eval.Metrics {
	exclude := map[roadnet.RoadID]bool{}
	for _, s := range seeds {
		exclude[s] = true
	}
	var acc eval.Accumulator
	for _, snap := range window {
		res, err := v.EstimateWith(context.Background(), snap.slot, perfectReports(seeds, snap.truth), opts)
		if err != nil {
			log.Fatal(err)
		}
		acc.AddSlice(res.Speeds, snap.truth, exclude)
	}
	return acc.Metrics()
}

// scoreBaseline runs one baseline over the window.
func scoreBaseline(ct *city, m baselines.Method, seeds []roadnet.RoadID, window []snapshot) eval.Metrics {
	exclude := map[roadnet.RoadID]bool{}
	for _, s := range seeds {
		exclude[s] = true
	}
	var acc eval.Accumulator
	for _, snap := range window {
		est, err := m.Estimate(&baselines.Request{
			Net: ct.d.Net, DB: ct.d.DB, Slot: snap.slot,
			SeedSpeeds: perfectReports(seeds, snap.truth),
		})
		if err != nil {
			log.Fatal(err)
		}
		acc.AddSlice(est, snap.truth, exclude)
	}
	return acc.Metrics()
}

// ---------------------------------------------------------------- T1

func runT1(ctx *Context) []*eval.Table {
	tab := eval.NewTable("Dataset statistics (synthetic stand-ins for Beijing/Tianjin)",
		"dataset", "roads", "junctions", "length (km)", "corr edges", "history days", "samples", "coverage")
	for _, name := range []string{"B", "T"} {
		ct := ctx.City(name)
		days := 14
		if ctx.fast {
			days = 7
		}
		tab.AddRowf(name+"-City",
			ct.d.Net.NumRoads(), ct.d.Net.NumNodes(),
			fmt.Sprintf("%.0f", ct.d.Net.TotalLength()/1000),
			ct.est.Graph().NumEdges(), days,
			ct.d.DB.ObservationCount(),
			fmt.Sprintf("%.0f%%", ct.d.DB.Coverage(10)*100))
	}
	return []*eval.Table{tab}
}

// ---------------------------------------------------------------- T2

func runT2(ctx *Context) []*eval.Table {
	var tables []*eval.Table
	for _, name := range []string{"B", "T"} {
		ct := ctx.City(name)
		v, seeds := ct.seedsAt(0.10)
		window := ct.window(ctx.evalSlots())
		tab := eval.NewTable(fmt.Sprintf("%s-City, K = 10%% (%d seeds): accuracy and per-slot latency", name, len(seeds)),
			"method", "MAE (m/s)", "RMSE", "MAPE", "ms/slot", "vs static")

		t0 := time.Now()
		ours := scoreTrendSpeed(v, seeds, window, core.EstimateOptions{})
		oursMS := float64(time.Since(t0).Milliseconds()) / float64(len(window))

		staticM := scoreBaseline(ct, baselines.Static{}, seeds, window)
		addRow := func(method string, m eval.Metrics, ms float64) {
			tab.AddRowf(method, m.MAE, m.RMSE, fmt.Sprintf("%.1f%%", m.MAPE*100),
				fmt.Sprintf("%.1f", ms), fmt.Sprintf("%+.0f%%", eval.Improvement(m, staticM)*100))
		}
		addRow("trendspeed", ours, oursMS)
		for _, m := range []baselines.Method{baselines.Static{}, baselines.GlobalScale{}, baselines.KNN{}, baselines.IDW{}, baselines.LabelProp{}} {
			t0 = time.Now()
			metrics := scoreBaseline(ct, m, seeds, window)
			ms := float64(time.Since(t0).Milliseconds()) / float64(len(window))
			addRow(m.Name(), metrics, ms)
		}
		tables = append(tables, tab)
	}
	return tables
}

// ---------------------------------------------------------------- F6

func runF6(ctx *Context) []*eval.Table {
	var tables []*eval.Table
	budgets := []float64{0.01, 0.02, 0.05, 0.10, 0.20, 0.30}
	for _, name := range []string{"B", "T"} {
		ct := ctx.City(name)
		window := ct.window(ctx.evalSlots())
		tab := eval.NewTable(fmt.Sprintf("%s-City: MAE (m/s) vs seed budget K", name),
			"K", "trendspeed", "knn", "idw", "labelprop", "static")
		for _, b := range budgets {
			v, seeds := ct.seedsAt(b)
			ours := scoreTrendSpeed(v, seeds, window, core.EstimateOptions{})
			knn := scoreBaseline(ct, baselines.KNN{}, seeds, window)
			idw := scoreBaseline(ct, baselines.IDW{}, seeds, window)
			lp := scoreBaseline(ct, baselines.LabelProp{}, seeds, window)
			st := scoreBaseline(ct, baselines.Static{}, seeds, window)
			tab.AddRowf(fmt.Sprintf("%.0f%%", b*100), ours.MAE, knn.MAE, idw.MAE, lp.MAE, st.MAE)
		}
		tables = append(tables, tab)
	}
	return tables
}

// ---------------------------------------------------------------- F7

func runF7(ctx *Context) []*eval.Table {
	ct := ctx.City("T")
	v, seeds := ct.seedsAt(0.10)
	exclude := map[roadnet.RoadID]bool{}
	for _, s := range seeds {
		exclude[s] = true
	}
	const buckets = 6 // four hours each
	ours := make([]eval.Accumulator, buckets)
	static := make([]eval.Accumulator, buckets)
	slotsPerDay := ct.d.Cal.SlotsPerDay()
	stride := 4
	if ctx.fast {
		stride = 12
	}
	for i := 0; i < slotsPerDay; i += stride {
		var snap snapshot
		for s := 0; s < stride && i+s < slotsPerDay; s++ {
			slot, truth := ct.d.NextTruth()
			if s == 0 {
				cp := make([]float64, len(truth))
				copy(cp, truth)
				snap = snapshot{slot: slot, truth: cp}
			}
		}
		res, err := v.Estimate(context.Background(), snap.slot, perfectReports(seeds, snap.truth))
		if err != nil {
			log.Fatal(err)
		}
		b := ct.d.Cal.HourOfSlot(snap.slot) / 4
		if b >= buckets {
			b = buckets - 1
		}
		ours[b].AddSlice(res.Speeds, snap.truth, exclude)
		for r := 0; r < ct.d.Net.NumRoads(); r++ {
			if exclude[roadnet.RoadID(r)] {
				continue
			}
			if mean, ok := ct.d.DB.Mean(roadnet.RoadID(r), snap.slot); ok {
				static[b].Add(mean, snap.truth[r])
			}
		}
	}
	tab := eval.NewTable("T-City: MAE (m/s) by time of day at K = 10% (06–10 and 16–20 hold the rush hours)",
		"hours", "trendspeed", "static", "improvement")
	for b := 0; b < buckets; b++ {
		mo, ms := ours[b].Metrics(), static[b].Metrics()
		if mo.N == 0 {
			continue
		}
		tab.AddRowf(fmt.Sprintf("%02d–%02d", b*4, b*4+4), mo.MAE, ms.MAE,
			fmt.Sprintf("%.0f%%", eval.Improvement(mo, ms)*100))
	}
	return []*eval.Table{tab}
}

// ---------------------------------------------------------------- F8

func runF8(ctx *Context) []*eval.Table {
	ct := ctx.City("T")
	window := ct.window(ctx.evalSlots())
	k := ct.d.Net.NumRoads() / 10
	selectors := []seedsel.Selector{
		seedsel.Lazy{}, seedsel.Greedy{}, seedsel.Partition{Parts: 8},
		seedsel.Degree{}, seedsel.PageRank{}, seedsel.Random{Seed: 7},
	}
	tab := eval.NewTable(fmt.Sprintf("T-City: seed quality at K = %d (benefit and downstream MAE)", k),
		"selector", "benefit", "MAE (m/s)", "MAPE")
	for _, sel := range selectors {
		seeds, err := sel.Select(ct.est.Problem(), k)
		if err != nil {
			log.Fatal(err)
		}
		m := scoreTrendSpeed(withSeeds(ct.est, seeds), seeds, window, core.EstimateOptions{})
		tab.AddRowf(sel.Name(), fmt.Sprintf("%.1f", ct.est.SeedBenefit(seeds)),
			m.MAE, fmt.Sprintf("%.1f%%", m.MAPE*100))
	}
	return []*eval.Table{tab}
}

// ---------------------------------------------------------------- F9

func runF9(ctx *Context) []*eval.Table {
	ct := ctx.City("B")
	n := ct.d.Net.NumRoads()
	budgets := []float64{0.01, 0.02, 0.05, 0.10, 0.20, 0.30}
	if ctx.fast {
		budgets = budgets[:4]
	}
	tab := eval.NewTable(fmt.Sprintf("B-City (%d roads): seed-selection wall time (naive greedy recomputes B(S∪{s}) from scratch; run at K ≤ 2%% only)", n),
		"K", "naive greedy", "greedy", "lazy", "partition", "lazy vs naive", "lazy vs greedy", "benefit gap (partition)")
	for _, b := range budgets {
		k := int(b * float64(n))
		if k < 1 {
			k = 1
		}
		timeIt := func(sel seedsel.Selector) (time.Duration, []roadnet.RoadID) {
			t0 := time.Now()
			seeds, err := sel.Select(ct.est.Problem(), k)
			if err != nil {
				log.Fatal(err)
			}
			return time.Since(t0), seeds
		}
		naive := "-"
		naiveSpeedup := "-"
		var tn time.Duration
		if b <= 0.02 && !ctx.fast {
			tn, _ = timeIt(seedsel.NaiveGreedy{})
			naive = tn.Round(time.Millisecond).String()
		}
		tg, gs := timeIt(seedsel.Greedy{})
		tl, ls := timeIt(seedsel.Lazy{})
		tp, ps := timeIt(seedsel.Partition{Parts: 8})
		bLazy := ct.est.SeedBenefit(ls)
		bPart := ct.est.SeedBenefit(ps)
		_ = gs
		if tn > 0 {
			naiveSpeedup = fmt.Sprintf("%.0fx", float64(tn)/float64(tl))
		}
		tab.AddRowf(fmt.Sprintf("%.0f%%", b*100),
			naive,
			tg.Round(time.Millisecond).String(), tl.Round(time.Millisecond).String(), tp.Round(time.Millisecond).String(),
			naiveSpeedup,
			fmt.Sprintf("%.0fx", float64(tg)/float64(tl)),
			fmt.Sprintf("%.1f%%", 100*(bLazy-bPart)/bLazy))
	}
	return []*eval.Table{tab}
}

// ---------------------------------------------------------------- F10

func runF10(ctx *Context) []*eval.Table {
	sizes := []struct{ bx, by int }{{8, 7}, {12, 10}, {18, 15}, {26, 22}}
	if ctx.fast {
		sizes = sizes[:2]
	}
	tab := eval.NewTable("Inference efficiency vs network size (K = 10%, slot width 10 min)",
		"roads", "train", "select", "estimate/slot", "realtime margin")
	for _, sz := range sizes {
		cfg := dataset.DefaultConfig()
		cfg.Net.BlocksX, cfg.Net.BlocksY = sz.bx, sz.by
		cfg.HistoryDays = 7
		d, err := dataset.Build(cfg)
		if err != nil {
			log.Fatal(err)
		}
		t0 := time.Now()
		est, err := core.NewView(d.Net, d.DB, core.DefaultOptions())
		if err != nil {
			log.Fatal(err)
		}
		trainT := time.Since(t0)
		t0 = time.Now()
		est, seeds, err := est.SelectSeeds(context.Background(), d.Net.NumRoads()/10)
		if err != nil {
			log.Fatal(err)
		}
		selectT := time.Since(t0)
		slot, truth := d.NextTruth()
		reports := perfectReports(seeds, truth)
		t0 = time.Now()
		const rounds = 5
		for i := 0; i < rounds; i++ {
			if _, err := est.Estimate(context.Background(), slot, reports); err != nil {
				log.Fatal(err)
			}
		}
		perSlot := time.Since(t0) / rounds
		margin := float64(10*time.Minute) / float64(perSlot)
		tab.AddRowf(d.Net.NumRoads(),
			trainT.Round(time.Millisecond).String(),
			selectT.Round(time.Millisecond).String(),
			perSlot.Round(time.Microsecond).String(),
			fmt.Sprintf("%.0fx", margin))
	}
	return []*eval.Table{tab}
}

// ---------------------------------------------------------------- F11

func runF11(ctx *Context) []*eval.Table {
	ct := ctx.City("T")
	window := ct.window(ctx.evalSlots())
	budgets := []float64{0.02, 0.05, 0.10, 0.20}
	tab := eval.NewTable("T-City: non-seed trend accuracy vs K (full system vs history-only prior)",
		"K", "trendspeed", "history-only")
	for _, b := range budgets {
		v, seeds := ct.seedsAt(b)
		exclude := map[roadnet.RoadID]bool{}
		for _, s := range seeds {
			exclude[s] = true
		}
		var sysOK, histOK, total int
		for _, snap := range window {
			res, err := v.Estimate(context.Background(), snap.slot, perfectReports(seeds, snap.truth))
			if err != nil {
				log.Fatal(err)
			}
			for r := 0; r < ct.d.Net.NumRoads(); r++ {
				id := roadnet.RoadID(r)
				if exclude[id] {
					continue
				}
				mean, ok := ct.d.DB.Mean(id, snap.slot)
				if !ok {
					continue
				}
				trueUp := snap.truth[r] >= mean
				total++
				if res.TrendUp[r] == trueUp {
					sysOK++
				}
				if (ct.d.DB.PUp(id, snap.slot) >= 0.5) == trueUp {
					histOK++
				}
			}
		}
		tab.AddRowf(fmt.Sprintf("%.0f%%", b*100),
			fmt.Sprintf("%.1f%%", 100*float64(sysOK)/float64(total)),
			fmt.Sprintf("%.1f%%", 100*float64(histOK)/float64(total)))
	}
	return []*eval.Table{tab}
}

// ---------------------------------------------------------------- A1

func runA1(ctx *Context) []*eval.Table {
	ct := ctx.City("T")
	window := ct.window(ctx.evalSlots())
	tab := eval.NewTable("T-City: the trend step on vs off across budgets (speed MAE, m/s) and the trend products themselves",
		"K", "with trends", "trend-free", "Δ", "trend accuracy")
	for _, b := range []float64{0.02, 0.05, 0.10} {
		v, seeds := ct.seedsAt(b)
		full := scoreTrendSpeed(v, seeds, window, core.EstimateOptions{})
		noTrend := scoreTrendSpeed(v, seeds, window, core.EstimateOptions{TrendFree: true})
		acc := trendAccuracy(ct, v, seeds, window)
		tab.AddRowf(fmt.Sprintf("%.0f%%", b*100), full.MAE, noTrend.MAE,
			fmt.Sprintf("%+.1f%%", 100*(noTrend.MAE-full.MAE)/noTrend.MAE),
			fmt.Sprintf("%.1f%%", acc*100))
	}
	return []*eval.Table{tab}
}

// trendAccuracy scores the full system's non-seed trend predictions on view v
// of the city.
func trendAccuracy(ct *city, v *core.View, seeds []roadnet.RoadID, window []snapshot) float64 {
	exclude := map[roadnet.RoadID]bool{}
	for _, s := range seeds {
		exclude[s] = true
	}
	var ok, total int
	for _, snap := range window {
		res, err := v.Estimate(context.Background(), snap.slot, perfectReports(seeds, snap.truth))
		if err != nil {
			log.Fatal(err)
		}
		for r := 0; r < ct.d.Net.NumRoads(); r++ {
			id := roadnet.RoadID(r)
			if exclude[id] {
				continue
			}
			mean, have := ct.d.DB.Mean(id, snap.slot)
			if !have {
				continue
			}
			total++
			if res.TrendUp[r] == (snap.truth[r] >= mean) {
				ok++
			}
		}
	}
	return float64(ok) / float64(total)
}

// ---------------------------------------------------------------- A2

func runA2(ctx *Context) []*eval.Table {
	ct := ctx.City("T")
	v, seeds := ct.seedsAt(0.10)
	window := ct.window(ctx.evalSlots())
	generic := withSeeds(v, nil)
	full := scoreTrendSpeed(v, seeds, window, core.EstimateOptions{})
	noSeed := scoreTrendSpeed(generic, seeds, window, core.EstimateOptions{})
	noSeedFlat := scoreTrendSpeed(generic, seeds, window, core.EstimateOptions{FlatHLM: true})
	tab := eval.NewTable("T-City, K = 10%: dismantling the hierarchy level by level",
		"variant", "MAE (m/s)", "MAPE")
	tab.AddRowf("full hierarchy (seed-conditional level)", full.MAE, fmt.Sprintf("%.1f%%", full.MAPE*100))
	tab.AddRowf("generic propagation only (no seed level)", noSeed.MAE, fmt.Sprintf("%.1f%%", noSeed.MAPE*100))
	tab.AddRowf("flat pass (no propagation either)", noSeedFlat.MAE, fmt.Sprintf("%.1f%%", noSeedFlat.MAPE*100))
	return []*eval.Table{tab}
}

// ---------------------------------------------------------------- A3

func runA3(ctx *Context) []*eval.Table {
	ct := ctx.City("T")
	window := ct.window(ctx.evalSlots())
	taus := []float64{0.55, 0.60, 0.65, 0.70, 0.80}
	tab := eval.NewTable("T-City: correlation threshold τ vs graph density and accuracy (K = 10%)",
		"τ", "edges", "mean degree", "MAE (m/s)")
	for _, tau := range taus {
		opts := core.DefaultOptions()
		opts.Corr.MinAgreement = tau
		est, err := core.NewView(ct.d.Net, ct.d.DB, opts)
		if err != nil {
			log.Fatal(err)
		}
		sv, seeds, err := est.SelectSeeds(context.Background(), ct.d.Net.NumRoads()/10)
		if err != nil {
			log.Fatal(err)
		}
		exclude := map[roadnet.RoadID]bool{}
		for _, s := range seeds {
			exclude[s] = true
		}
		var acc eval.Accumulator
		for _, snap := range window {
			res, err := sv.Estimate(context.Background(), snap.slot, perfectReports(seeds, snap.truth))
			if err != nil {
				log.Fatal(err)
			}
			acc.AddSlice(res.Speeds, snap.truth, exclude)
		}
		m := acc.Metrics()
		tab.AddRowf(fmt.Sprintf("%.2f", tau), est.Graph().NumEdges(),
			fmt.Sprintf("%.1f", est.Graph().MeanDegree()), m.MAE)
	}
	return []*eval.Table{tab}
}

// ---------------------------------------------------------------- A4

func runA4(ctx *Context) []*eval.Table {
	ct := ctx.City("T")
	v, seeds := ct.seedsAt(0.10)
	window := ct.window(ctx.evalSlots())
	exclude := map[roadnet.RoadID]bool{}
	for _, s := range seeds {
		exclude[s] = true
	}
	cases := []struct {
		label     string
		noise     float64
		malicious float64
	}{
		{"clean crowd (2% noise)", 0.02, 0},
		{"default (8% noise, 3% malicious)", 0.08, 0.03},
		{"noisy (15% noise, 10% malicious)", 0.15, 0.10},
		{"hostile (25% noise, 25% malicious)", 0.25, 0.25},
	}
	tab := eval.NewTable("T-City, K = 10%: accuracy vs crowd quality",
		"crowd", "MAE (m/s)", "MAPE", "answers/query")
	for _, tc := range cases {
		cfg := crowd.DefaultConfig()
		cfg.NoiseSD = tc.noise
		cfg.MaliciousFraction = tc.malicious
		platform, err := crowd.New(cfg)
		if err != nil {
			log.Fatal(err)
		}
		var acc eval.Accumulator
		var answers, queries int
		for _, snap := range window {
			reports, stats, err := platform.QuerySeeds(seeds, snap.truth)
			if err != nil {
				log.Fatal(err)
			}
			answers += stats.Answers
			queries += stats.Queries
			res, err := v.EstimateFromCrowd(context.Background(), snap.slot, reports)
			if err != nil {
				log.Fatal(err)
			}
			acc.AddSlice(res.Speeds, snap.truth, exclude)
		}
		m := acc.Metrics()
		tab.AddRowf(tc.label, m.MAE, fmt.Sprintf("%.1f%%", m.MAPE*100),
			fmt.Sprintf("%.2f", float64(answers)/float64(queries)))
	}
	return []*eval.Table{tab}
}

// ---------------------------------------------------------------- E1

func runE1(ctx *Context) []*eval.Table {
	ct := ctx.City("T")
	v, seeds := ct.seedsAt(0.10)
	window := ct.window(ctx.evalSlots())
	exclude := map[roadnet.RoadID]bool{}
	for _, s := range seeds {
		exclude[s] = true
	}
	classes := []roadnet.RoadClass{roadnet.Highway, roadnet.Arterial, roadnet.Collector, roadnet.Local}
	ours := make(map[roadnet.RoadClass]*eval.Accumulator)
	static := make(map[roadnet.RoadClass]*eval.Accumulator)
	seedShare := make(map[roadnet.RoadClass]int)
	classN := make(map[roadnet.RoadClass]int)
	for _, c := range classes {
		ours[c] = &eval.Accumulator{}
		static[c] = &eval.Accumulator{}
	}
	for r := 0; r < ct.d.Net.NumRoads(); r++ {
		classN[ct.d.Net.Road(roadnet.RoadID(r)).Class]++
	}
	for _, s := range seeds {
		seedShare[ct.d.Net.Road(s).Class]++
	}
	for _, snap := range window {
		res, err := v.Estimate(context.Background(), snap.slot, perfectReports(seeds, snap.truth))
		if err != nil {
			log.Fatal(err)
		}
		for r := 0; r < ct.d.Net.NumRoads(); r++ {
			id := roadnet.RoadID(r)
			if exclude[id] {
				continue
			}
			class := ct.d.Net.Road(id).Class
			ours[class].Add(res.Speeds[r], snap.truth[r])
			if mean, ok := ct.d.DB.Mean(id, snap.slot); ok {
				static[class].Add(mean, snap.truth[r])
			}
		}
	}
	tab := eval.NewTable("T-City, K = 10%: error by road class (seed share shows where selection spends the budget)",
		"class", "roads", "seed share", "trendspeed MAE", "static MAE", "improvement")
	for _, c := range classes {
		mo, ms := ours[c].Metrics(), static[c].Metrics()
		if mo.N == 0 {
			continue
		}
		tab.AddRowf(c.String(), classN[c],
			fmt.Sprintf("%.0f%%", 100*float64(seedShare[c])/float64(len(seeds))),
			mo.MAE, ms.MAE, fmt.Sprintf("%.0f%%", eval.Improvement(mo, ms)*100))
	}
	return []*eval.Table{tab}
}

// ---------------------------------------------------------------- E2

func runE2(ctx *Context) []*eval.Table {
	ct := ctx.City("T")
	window := ct.window(ctx.evalSlots())
	n := ct.d.Net.NumRoads()
	// Query prices: quiet streets have few drivers to ask, so answers cost
	// more there.
	costs := make([]float64, n)
	for r := 0; r < n; r++ {
		switch ct.d.Net.Road(roadnet.RoadID(r)).Class {
		case roadnet.Highway:
			costs[r] = 1
		case roadnet.Arterial:
			costs[r] = 1.5
		case roadnet.Collector:
			costs[r] = 2.5
		default:
			costs[r] = 4
		}
	}
	tab := eval.NewTable("T-City: spending a money budget — cost-aware vs count-based lazy greedy",
		"budget", "cost-aware seeds", "cost-aware MAE", "count-based seeds", "count-based MAE")
	for _, budget := range []float64{100, 250, 500} {
		ca, err := (seedsel.CostAware{Costs: costs, Budget: budget}).Select(ct.est.Problem(), n)
		if err != nil {
			log.Fatal(err)
		}
		caM := scoreTrendSpeed(withSeeds(ct.est, ca), ca, window, core.EstimateOptions{})

		// Count-based: pick seeds by plain lazy greedy until the same money
		// runs out.
		all, err := (seedsel.Lazy{}).Select(ct.est.Problem(), n/2)
		if err != nil {
			log.Fatal(err)
		}
		var cb []roadnet.RoadID
		spent := 0.0
		for _, s := range all {
			if spent+costs[s] > budget {
				break
			}
			spent += costs[s]
			cb = append(cb, s)
		}
		if len(cb) == 0 {
			continue
		}
		cbM := scoreTrendSpeed(withSeeds(ct.est, cb), cb, window, core.EstimateOptions{})
		tab.AddRowf(fmt.Sprintf("%.0f", budget), len(ca), caM.MAE, len(cb), cbM.MAE)
	}
	return []*eval.Table{tab}
}
