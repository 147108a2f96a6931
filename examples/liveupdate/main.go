// Liveupdate: the versioned model lifecycle end to end.
//
//	go run ./examples/liveupdate
//
// It wraps a trained model in a Store, runs an estimation round on model
// v1, ingests the crowd's own seed reports as fresh history, rebuilds in
// the background into model v2 and shows that rounds kept running — and
// which version each one ran on — throughout the swap.
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

	// 1. Dataset + initial model, published as version 1 of a Store.
	cfg := speedest.DefaultDatasetConfig()
	cfg.HistoryDays = 7
	d, err := speedest.BuildDataset(cfg)
	if err != nil {
		log.Fatal(err)
	}
	st, err := speedest.NewStore(d.Net, d.DB, speedest.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()
	st.OnSwap(func(old, v *speedest.View) {
		fmt.Printf("swap: model v%d → v%d (%d observations folded in)\n",
			old.Version(), v.Version(), v.ObservationCount()-old.ObservationCount())
	})
	fmt.Printf("store publishes model v%d over %d roads\n",
		st.View().Version(), d.Net.NumRoads())

	// 2. Seed selection and a crowd round on version 1.
	k := d.Net.NumRoads() / 10
	seeds, err := st.SelectSeeds(ctx, st.View(), k)
	if err != nil {
		log.Fatal(err)
	}
	crowd, err := speedest.NewCrowd(speedest.DefaultCrowdConfig())
	if err != nil {
		log.Fatal(err)
	}
	slot, truth := d.NextTruth()
	reports, _, err := crowd.QuerySeeds(seeds, truth)
	if err != nil {
		log.Fatal(err)
	}
	res, err := st.View().EstimateFromCrowd(ctx, slot, reports)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("round on model v%d: MAE %.2f m/s\n",
		res.ModelVersion, mae(res.Speeds, truth, seeds))

	// 3. Feed the crowd's answers back as observations. In a deployment
	//    every accepted round becomes training data for the next model.
	obs := make([]speedest.Observation, 0, len(reports))
	for _, r := range reports {
		obs = append(obs, speedest.Observation{Road: r.Road, Slot: slot, Speed: r.Speed})
	}
	buffered, err := st.Ingest(obs...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ingested %d observations (buffered: %d)\n", len(obs), buffered)

	// 4. Rebuild: retrains off to the side and hot-swaps. Rounds issued
	//    meanwhile would keep resolving v1 until the swap lands.
	if _, err := st.Rebuild(ctx); err != nil {
		log.Fatal(err)
	}

	// 5. The next round resolves the successor automatically.
	slot2, truth2 := d.NextTruth()
	reports2, _, err := crowd.QuerySeeds(seeds, truth2)
	if err != nil {
		log.Fatal(err)
	}
	res2, err := st.View().EstimateFromCrowd(ctx, slot2, reports2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("round on model v%d: MAE %.2f m/s\n",
		res2.ModelVersion, mae(res2.Speeds, truth2, seeds))
}

// mae scores non-seed roads against ground truth.
func mae(est, truth []float64, seeds []speedest.RoadID) float64 {
	isSeed := map[speedest.RoadID]bool{}
	for _, s := range seeds {
		isSeed[s] = true
	}
	var sum float64
	var n int
	for r := range est {
		if isSeed[speedest.RoadID(r)] || est[r] <= 0 {
			continue
		}
		sum += math.Abs(est[r] - truth[r])
		n++
	}
	return sum / float64(n)
}
