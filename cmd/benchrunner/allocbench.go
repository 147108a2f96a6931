package main

import (
	"context"
	"encoding/json"
	"log"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/roadnet"
)

// allocRecord is the -json report of the allocation gate: steady-state
// allocations per estimate round on a fixed small dataset, next to the
// checked-in baseline it was gated against. The per-construct discipline
// behind this number is enforced statically by the hotalloc analyzer and
// pinned at zero for the BP message round by TestBPRoundAllocs; this gate
// catches whatever those two cannot see (per-round allocations introduced
// through interfaces, stdlib calls, or map growth).
type allocRecord struct {
	NumRoads            int     `json:"num_roads"`
	Seeds               int     `json:"seeds"`
	Rounds              int     `json:"rounds"`
	EstimateAllocsPerOp float64 `json:"estimate_allocs_per_op"`
	BaselineAllocsPerOp float64 `json:"baseline_allocs_per_op,omitempty"`
	HeadroomFrac        float64 `json:"headroom_frac"`
}

// allocHeadroomFrac is the tolerated regression over the baseline: allocation
// counts are near-deterministic (unlike timings), so 10% absorbs map-growth
// jitter without letting a per-round allocation slip through on a large
// network.
const allocHeadroomFrac = 0.10

// allocGateRounds is the sample count for testing.AllocsPerRun.
const allocGateRounds = 20

// runAllocGate measures steady-state allocations per estimate round —
// BenchmarkEstimate's allocs/op, measured exactly (testing.AllocsPerRun)
// instead of sampled — and fails the run when the count regresses more than
// allocHeadroomFrac over the checked-in baseline. With update set, the
// measurement is written to baselinePath instead of gated.
//
// The dataset is fixed and small: the gate watches allocation *count*, which
// scales with code shape, not input scale, and small inputs keep the worker
// pool on its serial path so the count is reproducible across runners.
func runAllocGate(baselinePath string, update bool) *allocRecord {
	cfg := dataset.DefaultConfig()
	cfg.Net.BlocksX, cfg.Net.BlocksY = 8, 6
	cfg.HistoryDays = 4
	log.Printf("alloc gate: building dataset and view...")
	d, err := dataset.Build(cfg)
	if err != nil {
		log.Fatal(err)
	}
	// The served round: the view speedserver runs by default.
	v, err := core.NewView(d.Net, d.DB, core.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	slot, truth := d.NextTruth()
	seedSpeeds := map[roadnet.RoadID]float64{}
	for r := 0; r < d.Net.NumRoads(); r += 10 {
		seedSpeeds[roadnet.RoadID(r)] = truth[roadnet.RoadID(r)]
	}
	ctx := context.Background()
	// Warm-up rounds fill the BP buffer pool and any lazily grown state, so
	// the measurement sees the steady serving state, not first-run setup.
	for i := 0; i < 3; i++ {
		if _, err := v.Estimate(ctx, slot, seedSpeeds); err != nil {
			log.Fatal(err)
		}
	}
	var roundErr error
	allocs := testing.AllocsPerRun(allocGateRounds, func() {
		if _, err := v.Estimate(ctx, slot, seedSpeeds); err != nil {
			roundErr = err
		}
	})
	if roundErr != nil {
		log.Fatal(roundErr)
	}
	rec := &allocRecord{
		NumRoads:            d.Net.NumRoads(),
		Seeds:               len(seedSpeeds),
		Rounds:              allocGateRounds,
		EstimateAllocsPerOp: allocs,
		HeadroomFrac:        allocHeadroomFrac,
	}
	if update {
		raw, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(baselinePath, append(raw, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("alloc gate: wrote baseline %s (%.0f allocs/op)", baselinePath, allocs)
		return rec
	}
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		log.Fatalf("alloc gate: baseline unreadable (regenerate with -update-alloc-baseline): %v", err)
	}
	var base allocRecord
	if err := json.Unmarshal(raw, &base); err != nil {
		log.Fatalf("alloc gate: baseline %s: %v", baselinePath, err)
	}
	rec.BaselineAllocsPerOp = base.EstimateAllocsPerOp
	limit := base.EstimateAllocsPerOp * (1 + allocHeadroomFrac)
	if allocs > limit {
		log.Fatalf("alloc gate: estimate round allocates %.0f times/op, over the baseline %.0f +%d%% (%.0f); fix the regression or regenerate the baseline with -update-alloc-baseline",
			allocs, base.EstimateAllocsPerOp, int(allocHeadroomFrac*100), limit)
	}
	log.Printf("alloc gate: %.0f allocs/op (baseline %.0f, limit %.0f)", allocs, base.EstimateAllocsPerOp, limit)
	return rec
}
