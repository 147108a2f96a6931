// Quickstart: the minimal TrendSpeed loop on a small synthetic city.
//
//	go run ./examples/quickstart
//
// It builds a dataset (city + simulated traffic + probe-sampled history),
// trains the estimator, selects a seed budget, asks a simulated crowd for
// the seeds' current speeds and estimates the whole network — then scores
// the estimate against the simulator's ground truth.
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	speedest "repro"
)

func main() {
	ctx := context.Background()
	log.SetFlags(0)

	// 1. A benchmark dataset: ~900 road segments, 14 days of history.
	cfg := speedest.DefaultDatasetConfig()
	d, err := speedest.BuildDataset(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("city: %d roads, %d junctions; history: %d samples\n",
		d.Net.NumRoads(), d.Net.NumNodes(), d.DB.ObservationCount())

	// 2. Train: correlation graph + trend model + hierarchical linear model.
	est, err := speedest.New(d.Net, d.DB, speedest.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	g := est.Graph()
	fmt.Printf("correlation graph: %d edges (mean degree %.1f)\n", g.NumEdges(), g.MeanDegree())

	// 3. Pick a crowdsourcing budget: 10%% of roads become seeds.
	k := d.Net.NumRoads() / 10
	seeded, seeds, err := est.SelectSeeds(ctx, k)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("selected %d seeds, benefit %.1f\n", len(seeds), seeded.SeedBenefit(seeds))

	// 4. One real-time round: crowd answers on the seeds, inference fills in
	// the rest.
	platform, err := speedest.NewCrowd(speedest.DefaultCrowdConfig())
	if err != nil {
		log.Fatal(err)
	}
	slot, truth := d.NextTruth()
	reports, stats, err := platform.QuerySeeds(seeds, truth)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("crowd: %d answers from %d queries (cost %.0f)\n",
		stats.Answers, stats.Queries, stats.Cost)

	res, err := seeded.EstimateFromCrowd(ctx, slot, reports)
	if err != nil {
		log.Fatal(err)
	}

	// 5. Score against ground truth (non-seed roads only).
	isSeed := map[speedest.RoadID]bool{}
	for _, s := range seeds {
		isSeed[s] = true
	}
	var absErr, histErr float64
	var n int
	for r := 0; r < d.Net.NumRoads(); r++ {
		id := speedest.RoadID(r)
		if isSeed[id] || res.Speeds[r] <= 0 {
			continue
		}
		mean, ok := d.DB.Mean(id, slot)
		if !ok {
			continue
		}
		absErr += math.Abs(res.Speeds[r] - truth[r])
		histErr += math.Abs(mean - truth[r])
		n++
	}
	fmt.Printf("slot %d: TrendSpeed MAE %.2f m/s vs historical-mean MAE %.2f m/s over %d roads (%.0f%% better)\n",
		slot, absErr/float64(n), histErr/float64(n), n, 100*(1-absErr/histErr))
}
