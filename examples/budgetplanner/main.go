// Budgetplanner: how many seeds do you need?
//
//	go run ./examples/budgetplanner
//
// Crowdsourcing costs money: every seed road is queried every slot. This
// example sweeps the budget K and reports estimation accuracy and crowd
// cost per slot at each budget, so an operator can pick the knee of the
// curve.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	speedest "repro"
	"repro/internal/eval"
)

func main() {
	ctx := context.Background()
	log.SetFlags(0)

	d, err := speedest.BuildDataset(speedest.DefaultDatasetConfig())
	if err != nil {
		log.Fatal(err)
	}
	est, err := speedest.New(d.Net, d.DB, speedest.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	n := d.Net.NumRoads()
	crowdCfg := speedest.DefaultCrowdConfig()

	budgets := []float64{0.02, 0.05, 0.10, 0.20, 0.30}
	tab := eval.NewTable(fmt.Sprintf("Accuracy vs crowdsourcing budget (%d roads)", n),
		"budget", "seeds", "MAE (m/s)", "MAPE", "cost/slot")

	// A shared evaluation window: collect the next slots' truths up front so
	// every budget is scored on identical traffic.
	type snapshot struct {
		slot  int
		truth []float64
	}
	var window []snapshot
	for i := 0; i < 5; i++ {
		slot, truth := d.NextTruth()
		cp := make([]float64, len(truth))
		copy(cp, truth)
		window = append(window, snapshot{slot: slot, truth: cp})
	}

	for _, b := range budgets {
		k := int(b * float64(n))
		if k < 1 {
			k = 1
		}
		seeded, seeds, err := est.SelectSeeds(ctx, k)
		if err != nil {
			log.Fatal(err)
		}
		isSeed := map[speedest.RoadID]bool{}
		for _, s := range seeds {
			isSeed[s] = true
		}
		platform, err := speedest.NewCrowd(crowdCfg)
		if err != nil {
			log.Fatal(err)
		}
		var acc eval.Accumulator
		var cost float64
		for _, snap := range window {
			reports, stats, err := platform.QuerySeeds(seeds, snap.truth)
			if err != nil {
				log.Fatal(err)
			}
			cost += stats.Cost
			res, err := seeded.EstimateFromCrowd(ctx, snap.slot, reports)
			if err != nil {
				log.Fatal(err)
			}
			acc.AddSlice(res.Speeds, snap.truth, isSeed)
		}
		m := acc.Metrics()
		tab.AddRowf(fmt.Sprintf("%.0f%%", b*100), k, m.MAE,
			fmt.Sprintf("%.1f%%", m.MAPE*100), fmt.Sprintf("%.0f", cost/float64(len(window))))
	}
	if _, err := tab.WriteTo(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println("pick the budget where MAE stops improving faster than cost grows")
}
