// Command trafficest runs the full TrendSpeed loop on a persisted or
// freshly generated dataset: train, select K seeds, then estimate a window
// of time slots with crowdsourced seed speeds, reporting accuracy against
// the simulator's ground truth and against the static baseline.
//
// Usage:
//
//	trafficest -city t -budget 0.1 -slots 12
//	trafficest -data data/bcity -budget 0.05 -slots 6
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/history"
	"repro/internal/render"
	"repro/internal/roadnet"
)

func main() {
	ctx := context.Background()
	log.SetFlags(0)
	log.SetPrefix("trafficest: ")

	var (
		city    = flag.String("city", "default", "dataset preset when -data is unset: b, t or default")
		data    = flag.String("data", "", "directory with network.json + history.thdb from datagen (ground truth unavailable: reports estimates only)")
		budget  = flag.Float64("budget", 0.10, "seed budget as a fraction of roads")
		slots   = flag.Int("slots", 12, "evaluation slots to run")
		showMap = flag.Bool("map", false, "print ASCII congestion maps (estimated vs true) for the final slot")
	)
	flag.Parse()

	if *data != "" {
		runPersisted(*data, *budget)
		return
	}

	var cfg dataset.Config
	switch *city {
	case "b":
		cfg = dataset.BCity()
	case "t":
		cfg = dataset.TCity()
	case "default":
		cfg = dataset.DefaultConfig()
	default:
		log.Fatalf("unknown -city %q", *city)
	}
	log.Printf("building %s-city dataset...", *city)
	d, err := dataset.Build(cfg)
	if err != nil {
		log.Fatal(err)
	}

	log.Printf("training estimator over %d roads...", d.Net.NumRoads())
	t0 := time.Now()
	est, err := core.NewView(d.Net, d.DB, core.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("trained in %v (%d correlation edges)", time.Since(t0).Round(time.Millisecond), est.Shard(0).Graph().NumEdges())

	k := int(*budget * float64(d.Net.NumRoads()))
	if k < 1 {
		k = 1
	}
	t0 = time.Now()
	seeds, err := est.SelectSeeds(ctx, k)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("selected %d seeds in %v (benefit %.1f)", len(seeds), time.Since(t0).Round(time.Millisecond), est.SeedBenefit(seeds))

	platform, err := crowd.New(crowd.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	var ours, static eval.Accumulator
	var totalLatency time.Duration
	var lastRes *core.Estimate
	var lastTruth []float64
	exclude := map[roadnet.RoadID]bool{}
	for _, s := range seeds {
		exclude[s] = true
	}
	for i := 0; i < *slots; i++ {
		slot, truth := d.NextTruth()
		reports, stats, err := platform.QuerySeeds(seeds, truth)
		if err != nil {
			log.Fatal(err)
		}
		platform.Accumulate(stats)
		t0 = time.Now()
		res, err := est.EstimateFromCrowd(ctx, slot, reports)
		if err != nil {
			log.Fatal(err)
		}
		totalLatency += time.Since(t0)
		ours.AddSlice(res.Speeds, truth, exclude)
		if i == *slots-1 {
			lastRes = res
			lastTruth = append([]float64(nil), truth...)
		}
		seedSpeeds := map[roadnet.RoadID]float64{}
		for _, r := range reports {
			seedSpeeds[r.Road] = r.Speed
		}
		st, err := baselines.Static{}.Estimate(&baselines.Request{Net: d.Net, DB: d.DB, Slot: slot, SeedSpeeds: seedSpeeds})
		if err != nil {
			log.Fatal(err)
		}
		static.AddSlice(st, truth, exclude)
	}

	mOurs, mStatic := ours.Metrics(), static.Metrics()
	tab := eval.NewTable(fmt.Sprintf("TrendSpeed vs static over %d slots (K=%d seeds, crowd cost %.0f)",
		*slots, k, platform.Stats().Cost),
		"method", "MAE (m/s)", "RMSE", "MAPE", "n")
	tab.AddRowf("trendspeed", mOurs.MAE, mOurs.RMSE, fmt.Sprintf("%.1f%%", mOurs.MAPE*100), mOurs.N)
	tab.AddRowf("static", mStatic.MAE, mStatic.RMSE, fmt.Sprintf("%.1f%%", mStatic.MAPE*100), mStatic.N)
	if _, err := tab.WriteTo(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("improvement over static: %.0f%%; mean estimation latency: %v\n",
		eval.Improvement(mOurs, mStatic)*100, (totalLatency / time.Duration(*slots)).Round(time.Microsecond))

	if *showMap && lastRes != nil {
		trueRels := make([]float64, d.Net.NumRoads())
		for r := range trueRels {
			if mean, ok := d.DB.Mean(roadnet.RoadID(r), lastRes.Slot); ok && mean > 0 {
				trueRels[r] = lastTruth[r] / mean
			}
		}
		est := render.SpeedMap(d.Net, lastRes.Rels, 56)
		truthMap := render.SpeedMap(d.Net, trueRels, 56)
		fmt.Println()
		fmt.Print(render.SideBySide(est, truthMap, "estimated congestion", "true congestion"))
		fmt.Println(render.Legend())
	}
}

// runPersisted estimates from a datagen directory. Without the simulator
// there is no ground truth, so it reports seed selection and one estimation
// round's summary statistics instead of accuracy.
func runPersisted(dir string, budget float64) {
	ctx := context.Background()
	net, db := loadDataset(dir)
	est, err := core.NewView(net, db, core.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	k := int(budget * float64(net.NumRoads()))
	if k < 1 {
		k = 1
	}
	seeds, err := est.SelectSeeds(ctx, k)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("selected %d seeds (benefit %.1f); first ten: %v\n", len(seeds), est.SeedBenefit(seeds), seeds[:min(10, len(seeds))])

	// Demonstration round: pretend every seed reports its historical mean.
	slot := 0
	seedSpeeds := map[roadnet.RoadID]float64{}
	for _, s := range seeds {
		if m, ok := db.Mean(s, slot); ok {
			seedSpeeds[s] = m
		}
	}
	res, err := est.Estimate(ctx, slot, seedSpeeds)
	if err != nil {
		log.Fatal(err)
	}
	var est0, estN int
	for _, v := range res.Speeds {
		if v > 0 {
			estN++
		} else {
			est0++
		}
	}
	fmt.Printf("estimated %d roads (%d without history) for slot %d\n", estN, est0, slot)
}

func loadDataset(dir string) (*roadnet.Network, *history.DB) {
	f, err := os.Open(filepath.Join(dir, "network.json"))
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	net, err := roadnet.ReadJSON(f)
	if err != nil {
		log.Fatal(err)
	}
	g, err := os.Open(filepath.Join(dir, "history.thdb"))
	if err != nil {
		log.Fatal(err)
	}
	defer g.Close()
	db, err := history.ReadDB(g)
	if err != nil {
		log.Fatal(err)
	}
	return net, db
}
