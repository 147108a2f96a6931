// Incident: congestion alerting from estimated speeds.
//
//	go run ./examples/incident
//
// The traffic simulator injects random incidents (accidents, closures) that
// slash speeds on a road and its surroundings. This example uses the
// estimator as an alerting system: any road estimated below 60% of its
// historical mean raises an alert. Precision and recall are scored against
// the ground truth over a window of slots — with only 10% of roads actually
// observed.
package main

import (
	"context"
	"fmt"
	"log"

	speedest "repro"
)

// incidentRel defines ground truth: a road is incident-affected when its
// true speed falls below this fraction of its historical mean.
const incidentRel = 0.6

// alertRels are the candidate alert thresholds swept by the example:
// inference smooths extremes, so thresholds above incidentRel trade
// precision for recall.
var alertRels = []float64{0.60, 0.65, 0.70, 0.75}

func main() {
	ctx := context.Background()
	log.SetFlags(0)

	cfg := speedest.DefaultDatasetConfig()
	cfg.Sim.IncidentsPerSlot = 1.5 // a busy day for the traffic police
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

	tp := make([]int, len(alertRels))
	fp := make([]int, len(alertRels))
	fn := make([]int, len(alertRels))
	rounds := 0
	for i := 0; i < 18; i++ { // three hours of 10-minute slots
		slot, truth := d.NextTruth()
		seedSpeeds := map[speedest.RoadID]float64{}
		for _, s := range seeds {
			seedSpeeds[s] = truth[s]
		}
		res, err := seeded.Estimate(ctx, slot, seedSpeeds)
		if err != nil {
			log.Fatal(err)
		}
		rounds++
		for r := 0; r < d.Net.NumRoads(); r++ {
			id := speedest.RoadID(r)
			mean, ok := d.DB.Mean(id, slot)
			if !ok || mean <= 0 || res.Speeds[r] <= 0 {
				continue
			}
			actual := truth[r]/mean < incidentRel
			for ti, th := range alertRels {
				predicted := res.Speeds[r]/mean < th
				switch {
				case predicted && actual:
					tp[ti]++
				case predicted && !actual:
					fp[ti]++
				case !predicted && actual:
					fn[ti]++
				}
			}
		}
	}

	fmt.Printf("congestion alerting over %d slots (incident = true speed below %.0f%% of historical mean):\n",
		rounds, incidentRel*100)
	fmt.Printf("%-10s %-10s %-8s %-8s %-6s\n", "alert-at", "alarms", "prec", "recall", "F1")
	for ti, th := range alertRels {
		precision := float64(tp[ti]) / float64(tp[ti]+fp[ti])
		recall := float64(tp[ti]) / float64(tp[ti]+fn[ti])
		f1 := 2 * precision * recall / (precision + recall)
		fmt.Printf("%-10s %-10d %-8.2f %-8.2f %-6.2f\n",
			fmt.Sprintf("<%.0f%%", th*100), tp[ti]+fp[ti], precision, recall, f1)
	}
	fmt.Println("every alert comes from inference: only 10% of roads are actually observed")
}
