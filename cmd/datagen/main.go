// Command datagen generates and persists a synthetic benchmark dataset as a
// dataset directory (dataset.Save): the road network (JSON) and the
// historical speed database (binary), ready for cmd/trafficest,
// cmd/speedserver and offline experimentation.
//
// Usage:
//
//	datagen -city b -out data/bcity
//	datagen -city t -days 21 -coverage 0.6 -out data/tcity
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/dataset"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("datagen: ")

	var (
		city     = flag.String("city", "default", "dataset preset: b (Beijing-scale stand-in), t (Tianjin-scale), default (small)")
		days     = flag.Int("days", 0, "override history length in days")
		coverage = flag.Float64("coverage", 0, "override probe coverage per slot (0,1]")
		seed     = flag.Int64("seed", 0, "override sampling seed")
		out      = flag.String("out", "data", "output directory")
	)
	flag.Parse()

	cfg, err := dataset.Preset(*city)
	if err != nil {
		log.Fatal(err)
	}
	if *days > 0 {
		cfg.HistoryDays = *days
	}
	if *coverage > 0 {
		cfg.CoveragePerSlot = *coverage
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}

	log.Printf("building %s-city dataset (%d history days, %.0f%% coverage)...",
		*city, cfg.HistoryDays, cfg.CoveragePerSlot*100)
	d, err := dataset.Build(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := dataset.Save(*out, d.Net, d.DB); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset: %s\n", *out)
	fmt.Printf("network: %d roads, %d junctions, %.1f km\n",
		d.Net.NumRoads(), d.Net.NumNodes(), d.Net.TotalLength()/1000)
	fmt.Printf("history: %d slot-level samples, %.0f%% road coverage\n",
		d.DB.ObservationCount(), d.DB.Coverage(10)*100)
}
