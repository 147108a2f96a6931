// Rushhour: accuracy across a full day, bucketed by time of day.
//
//	go run ./examples/rushhour
//
// The paper's central observation is that traffic is hardest to estimate at
// the rush hours, when it deviates most from its historical pattern — and
// that is exactly where crowdsourced seeds plus trend inference pay off.
// This example runs TrendSpeed over 24 hours of simulated traffic and
// prints MAE per two-hour bucket, for TrendSpeed and the history-only
// baseline.
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"os"

	speedest "repro"
	"repro/internal/eval"
)

func main() {
	ctx := context.Background()
	log.SetFlags(0)

	cfg := speedest.DefaultDatasetConfig()
	cfg.Net.BlocksX, cfg.Net.BlocksY = 12, 9
	d, err := speedest.BuildDataset(cfg)
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
	isSeed := map[speedest.RoadID]bool{}
	for _, s := range seeds {
		isSeed[s] = true
	}

	const buckets = 12 // two hours each
	ours := make([]eval.Accumulator, buckets)
	hist := make([]eval.Accumulator, buckets)

	slotsPerDay := d.Cal.SlotsPerDay()
	// Sample every third slot to keep the example quick (48 rounds).
	for i := 0; i < slotsPerDay; i += 3 {
		slot, truth := d.NextTruth()
		for skip := 0; skip < 2; skip++ { // advance the remaining 2 slots
			if i+skip+1 < slotsPerDay {
				slot, truth = d.NextTruth()
			}
		}
		seedSpeeds := map[speedest.RoadID]float64{}
		for _, s := range seeds {
			seedSpeeds[s] = truth[s]
		}
		res, err := seeded.Estimate(ctx, slot, seedSpeeds)
		if err != nil {
			log.Fatal(err)
		}
		b := d.Cal.HourOfSlot(slot) / 2
		if b >= buckets {
			b = buckets - 1
		}
		for r := 0; r < d.Net.NumRoads(); r++ {
			id := speedest.RoadID(r)
			if isSeed[id] || res.Speeds[r] <= 0 {
				continue
			}
			mean, ok := d.DB.Mean(id, slot)
			if !ok {
				continue
			}
			ours[b].Add(res.Speeds[r], truth[r])
			hist[b].Add(mean, truth[r])
		}
	}

	tab := eval.NewTable("MAE by time of day (m/s); rush hours in the 06–10 and 16–20 buckets",
		"hours", "trendspeed", "history-only", "improvement")
	var worstGain, bestGain float64 = math.Inf(1), math.Inf(-1)
	for b := 0; b < buckets; b++ {
		mo, mh := ours[b].Metrics(), hist[b].Metrics()
		if mo.N == 0 {
			continue
		}
		gain := eval.Improvement(mo, mh)
		if gain < worstGain {
			worstGain = gain
		}
		if gain > bestGain {
			bestGain = gain
		}
		tab.AddRowf(fmt.Sprintf("%02d–%02d", b*2, b*2+2), mo.MAE, mh.MAE, fmt.Sprintf("%.0f%%", gain*100))
	}
	if _, err := tab.WriteTo(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("improvement ranges from %.0f%% to %.0f%% across the day\n", worstGain*100, bestGain*100)
}
