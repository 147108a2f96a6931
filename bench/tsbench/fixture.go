package main

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/roadnet"
)

// Hours of the first simulated day after the history period that truth frames
// are taken from, so no frame lies inside the history the server trained on.
// Estimates ask about the morning peak; observation batches report the hours
// before it, so a rebuilt model has never seen the truth it is scored against.
const (
	ingestHourFrom   = 4
	estimateHourFrom = 7
	estimateHourTo   = 10
)

// fixture is tsbench's own copy of the city speedserver serves with its
// default flags (dataset.DefaultConfig): the truth frames requests are
// generated from and scored against, and the counts the target must report
// before tsbench measures it.
type fixture struct {
	Roads        int
	Observations int
	// Frames are the estimate frames, IngestFrames the observation frames.
	Frames       []frame
	IngestFrames []frame
}

// frame is one ground-truth snapshot.
type frame struct {
	Slot  int
	Truth []float64
	// Hist is the historical-mean speed of each road for the slot, the
	// baseline an estimate must beat; 0 marks a road with no history.
	Hist []float64
}

// buildFixture builds the default dataset and walks its simulator through
// one day past the history.
func buildFixture() (*fixture, error) {
	ds, err := dataset.Build(dataset.DefaultConfig())
	if err != nil {
		return nil, fmt.Errorf("building dataset: %w", err)
	}
	fx := &fixture{Roads: ds.Net.NumRoads(), Observations: ds.DB.ObservationCount()}
	cal := ds.Cal
	for i := 0; i < cal.SlotsPerDay(); i++ {
		f := frame{Slot: ds.Slot(), Truth: append([]float64(nil), ds.Truth()...)}
		switch h := cal.HourOfSlot(f.Slot); {
		case h >= ingestHourFrom && h < estimateHourFrom:
			fx.IngestFrames = append(fx.IngestFrames, f)
		case h >= estimateHourFrom && h < estimateHourTo:
			f.Hist = make([]float64, fx.Roads)
			for r := range f.Hist {
				if m, ok := ds.DB.Mean(roadnet.RoadID(r), f.Slot); ok {
					f.Hist[r] = m
				}
			}
			fx.Frames = append(fx.Frames, f)
		}
		ds.NextTruth()
	}
	if len(fx.Frames) == 0 || len(fx.IngestFrames) == 0 {
		return nil, fmt.Errorf("no slot of hours %d..%d within one simulated day", ingestHourFrom, estimateHourTo)
	}
	return fx, nil
}
