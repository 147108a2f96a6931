// Navigation: what the estimated speeds are *for*.
//
//	go run ./examples/navigation
//
// A navigation service plans fastest routes. This example compares three
// planners on identical origin–destination trips over live simulated
// traffic:
//
//   - oracle: routes on the true current speeds (unattainable upper bound),
//   - trendspeed: routes on the estimated speeds (10% of roads observed),
//   - historical: routes on the historical means (no live data at all).
//
// Every planned route is then scored by its *true* travel time. The gap
// between historical and trendspeed routing is the user-facing value of
// the estimation system.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	speedest "repro"
	"repro/internal/roadnet"
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
	seeded, seeds, err := est.SelectSeeds(ctx, d.Net.NumRoads()/10)
	if err != nil {
		log.Fatal(err)
	}
	router := roadnet.NewRouter(d.Net)
	rng := rand.New(rand.NewSource(2016))

	var oracleSum, oursSum, histSum float64
	trips := 0
	for round := 0; round < 6; round++ {
		slot, truth := d.NextTruth()
		seedSpeeds := map[speedest.RoadID]float64{}
		for _, s := range seeds {
			seedSpeeds[s] = truth[s]
		}
		res, err := seeded.Estimate(ctx, slot, seedSpeeds)
		if err != nil {
			log.Fatal(err)
		}

		trueSpeeds := func(id roadnet.RoadID) float64 { return truth[id] }
		estSpeeds := func(id roadnet.RoadID) float64 {
			if v := res.Speeds[id]; v > 0 {
				return v
			}
			return d.Net.Road(id).Class.FreeFlowSpeed()
		}
		histSpeeds := func(id roadnet.RoadID) float64 {
			if m, ok := d.DB.Mean(id, slot); ok {
				return m
			}
			return d.Net.Road(id).Class.FreeFlowSpeed()
		}

		for trip := 0; trip < 25; trip++ {
			src := roadnet.NodeID(rng.Intn(d.Net.NumNodes()))
			dst := roadnet.NodeID(rng.Intn(d.Net.NumNodes()))
			if src == dst {
				continue
			}
			score := func(speeds roadnet.SpeedFunc) (float64, bool) {
				route, err := router.Route(src, dst, speeds)
				if err != nil || len(route.Roads) == 0 {
					return 0, false
				}
				tt, err := router.TravelTime(route.Roads, trueSpeeds)
				if err != nil {
					return 0, false
				}
				return tt, true
			}
			oracle, ok1 := score(trueSpeeds)
			ours, ok2 := score(estSpeeds)
			hist, ok3 := score(histSpeeds)
			if !ok1 || !ok2 || !ok3 {
				continue
			}
			oracleSum += oracle
			oursSum += ours
			histSum += hist
			trips++
		}
	}

	fmt.Printf("true travel time over %d trips (minutes, lower is better):\n", trips)
	fmt.Printf("  oracle routing (true speeds)     %7.1f\n", oracleSum/60)
	fmt.Printf("  trendspeed routing (estimates)   %7.1f  (+%.1f%% vs oracle)\n",
		oursSum/60, 100*(oursSum-oracleSum)/oracleSum)
	fmt.Printf("  historical routing (no live data)%7.1f  (+%.1f%% vs oracle)\n",
		histSum/60, 100*(histSum-oracleSum)/oracleSum)
	saved := (histSum - oursSum) / 60
	fmt.Printf("estimated speeds save %.1f minutes across these trips (%.1f%% of historical routing time)\n",
		saved, 100*(histSum-oursSum)/histSum)
}
