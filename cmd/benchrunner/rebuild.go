package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/roadnet"
)

// rebuildRecord is the -json report of one incremental-vs-full rebuild
// comparison: durations per mode (minimum over the measured rounds, the
// usual bench convention), the speedup, and the estimate divergence between
// the two successor models against the equivalence bounds the core property
// test enforces. The metrics snapshot in the same report carries the
// per-mode trendspeed_model_rebuild_duration_seconds histograms behind
// these numbers.
type rebuildRecord struct {
	NumRoads           int     `json:"num_roads"`
	DirtyRoads         int     `json:"dirty_roads"`
	DirtyFraction      float64 `json:"dirty_fraction"`
	Rounds             int     `json:"rounds"`
	FullSeconds        float64 `json:"full_rebuild_seconds"`
	IncrementalSeconds float64 `json:"incremental_rebuild_seconds"`
	Speedup            float64 `json:"speedup"`
	IncrementalMode    string  `json:"incremental_mode"`
	MaxSpeedDivergence float64 `json:"max_speed_divergence_ms"`
	MaxTrendDivergence float64 `json:"max_trend_divergence_pup"`
	SpeedBound         float64 `json:"speed_equivalence_bound_ms"`
	TrendBound         float64 `json:"trend_equivalence_bound_pup"`
}

// Equivalence bounds between an incremental and a full rebuild over the same
// observation stream — the same values TestStoreIncrementalMatchesFull pins:
// BP convergence tolerance plus hlm.Retrain's stale group-level predictors.
const (
	rebuildSpeedBound = 0.05 // m/s
	rebuildTrendBound = 0.01 // P(up)
)

// runRebuildBench measures one small-delta refresh both ways: two stores
// over the same dataset, the same observation stream ingested into both,
// one rebuilding incrementally (delta re-score + retrain + BP warm-start)
// and one from scratch. It fails the run — the CI smoke gate — when the
// incremental path does not engage or the successors' estimates diverge
// beyond the equivalence bounds; the speedup is recorded, not gated, so CI
// stays immune to shared-runner timing noise.
func runRebuildBench(fast bool) *rebuildRecord {
	ctx := context.Background()
	cfg := dataset.DefaultConfig()
	cfg.Net.BlocksX, cfg.Net.BlocksY = 14, 12
	cfg.HistoryDays = 7
	rounds := 3
	if fast {
		cfg.Net.BlocksX, cfg.Net.BlocksY = 8, 6
		cfg.HistoryDays = 4
		rounds = 2
	}
	log.Printf("rebuild bench: building dataset and twin stores...")
	d, err := dataset.Build(cfg)
	if err != nil {
		log.Fatal(err)
	}
	stInc, err := core.NewStore(d.Net, d.DB, core.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	defer stInc.Close()
	stFull, err := core.NewStore(d.Net, d.DB, core.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	defer stFull.Close()
	// No triggers armed: Start only records the incremental threshold, and
	// the explicit Rebuild calls below honour it. stFull keeps the zero
	// config, which disables the delta path entirely.
	stInc.Start(core.StoreConfig{IncrementalMaxDirtyFrac: 0.25})

	slot, truth := d.NextTruth()
	seedSpeeds := map[roadnet.RoadID]float64{}
	for r := 0; r < d.Net.NumRoads(); r += 10 {
		seedSpeeds[roadnet.RoadID(r)] = truth[roadnet.RoadID(r)]
	}

	// The delta: ~2% of roads (at least 3), three observations each at the
	// road's current historical mean where one exists. Small enough to stay
	// far under the threshold, real enough to dirty aggregates and shift
	// correlation agreements.
	dirtyRoads := d.Net.NumRoads() / 50
	if dirtyRoads < 3 {
		dirtyRoads = 3
	}
	delta := func(v *core.View) []core.Observation {
		out := make([]core.Observation, 0, 3*dirtyRoads)
		for r := 0; r < dirtyRoads; r++ {
			id := roadnet.RoadID(r)
			speed, ok := v.DB().Mean(id, slot)
			if !ok || speed <= 0 {
				speed = 8.0
			}
			for k := 0; k < 3; k++ {
				out = append(out, core.Observation{Road: id, Slot: slot, Speed: speed})
			}
		}
		return out
	}

	rec := &rebuildRecord{
		NumRoads:      d.Net.NumRoads(),
		DirtyRoads:    dirtyRoads,
		DirtyFraction: float64(dirtyRoads) / float64(d.Net.NumRoads()),
		Rounds:        rounds,
		SpeedBound:    rebuildSpeedBound,
		TrendBound:    rebuildTrendBound,
	}

	rebuildOnce := func(st *core.Store, wantMode string) float64 {
		// An estimate before the rebuild gives the incremental store
		// converged beliefs to warm-start its successor from — the serving
		// pattern the delta path is built for.
		v := st.View()
		if _, err := v.Estimate(ctx, slot, seedSpeeds); err != nil {
			log.Fatal(err)
		}
		if _, err := st.Ingest(delta(v)...); err != nil {
			log.Fatal(err)
		}
		t0 := time.Now()
		m, err := st.Rebuild(ctx)
		elapsed := time.Since(t0).Seconds()
		if err != nil {
			log.Fatal(err)
		}
		if got := m.RebuildMode(); got != wantMode {
			log.Fatalf("rebuild bench: rebuild mode = %q, want %q", got, wantMode)
		}
		return elapsed
	}
	for i := 0; i < rounds; i++ {
		inc := rebuildOnce(stInc, "incremental")
		full := rebuildOnce(stFull, "full")
		if rec.IncrementalSeconds == 0 || inc < rec.IncrementalSeconds {
			rec.IncrementalSeconds = inc
		}
		if rec.FullSeconds == 0 || full < rec.FullSeconds {
			rec.FullSeconds = full
		}
		log.Printf("rebuild bench: round %d/%d incremental %.3fs, full %.3fs", i+1, rounds, inc, full)
	}
	rec.IncrementalMode = stInc.View().RebuildMode()
	if rec.IncrementalSeconds > 0 {
		rec.Speedup = rec.FullSeconds / rec.IncrementalSeconds
	}

	// Equivalence gate: both stores folded in the same observation stream,
	// so their final models must agree within the property-test bounds.
	resInc, err := stInc.View().Estimate(ctx, slot, seedSpeeds)
	if err != nil {
		log.Fatal(err)
	}
	resFull, err := stFull.View().Estimate(ctx, slot, seedSpeeds)
	if err != nil {
		log.Fatal(err)
	}
	for r := range resInc.Speeds {
		if diff := abs(resInc.Speeds[r] - resFull.Speeds[r]); diff > rec.MaxSpeedDivergence {
			rec.MaxSpeedDivergence = diff
		}
		if diff := abs(resInc.PUp[r] - resFull.PUp[r]); diff > rec.MaxTrendDivergence {
			rec.MaxTrendDivergence = diff
		}
	}
	if rec.MaxSpeedDivergence > rebuildSpeedBound || rec.MaxTrendDivergence > rebuildTrendBound {
		log.Fatalf("rebuild bench: incremental diverges from full beyond the equivalence bound: |Δspeed| %.4g m/s (bound %g), |ΔPUp| %.4g (bound %g)",
			rec.MaxSpeedDivergence, rebuildSpeedBound, rec.MaxTrendDivergence, rebuildTrendBound)
	}
	fmt.Printf("\n== rebuild bench: incremental %.3fs vs full %.3fs (%.1f× speedup, %d/%d dirty roads, |Δspeed| ≤ %.3g m/s, |ΔPUp| ≤ %.3g) ==\n",
		rec.IncrementalSeconds, rec.FullSeconds, rec.Speedup, rec.DirtyRoads, rec.NumRoads, rec.MaxSpeedDivergence, rec.MaxTrendDivergence)
	return rec
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
