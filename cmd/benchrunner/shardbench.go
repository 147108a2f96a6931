package main

import (
	"context"
	"fmt"
	"log"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/roadnet"
)

// shardBenchRecord is the -json report of one shard-scaling comparison: the
// same dataset trained at each shard count, then the network grown ~4× and
// the comparison repeated. Two claims are measured: a delta confined to one
// district rebuilds in per-district time (LocalizedRebuildSeconds falls as K
// grows, RebuiltDistricts stays 1), and per-round estimate latency stays
// flat as the road count scales because districts infer in parallel. The
// boundary-stitching equivalence at K=4 is gated, not just recorded, with
// the same bounds the core property test pins.
type shardBenchRecord struct {
	ShardCounts []int              `json:"shard_counts"`
	SpeedBound  float64            `json:"speed_equivalence_bound_ms"`
	TrendBound  float64            `json:"trend_equivalence_bound_pup"`
	Scales      []shardScaleRecord `json:"scales"`
}

// shardScaleRecord is one network size's sweep over the shard counts.
type shardScaleRecord struct {
	NumRoads int                 `json:"num_roads"`
	Configs  []shardConfigRecord `json:"configs"`
}

// shardConfigRecord is one (network size, shard count) measurement.
type shardConfigRecord struct {
	Shards        int `json:"shards"`
	Districts     int `json:"districts_nonempty"`
	BoundaryEdges int `json:"boundary_edges"`
	// BuildSeconds is the full cold build: partition + K parallel district
	// builds.
	BuildSeconds float64 `json:"build_seconds"`
	// EstimateSeconds is the per-round estimate latency (minimum over the
	// measured rounds, the usual bench convention).
	EstimateSeconds float64 `json:"estimate_seconds_per_round"`
	// LocalizedRebuildSeconds is a rebuild after a delta confined to one
	// district; RebuiltDistricts counts the districts that actually swapped.
	LocalizedRebuildSeconds float64 `json:"localized_rebuild_seconds"`
	RebuiltDistricts        int     `json:"rebuilt_districts"`
	// Divergence of this configuration's stitched estimates from the
	// unsharded (K=1) estimates on the same seeds and truth; zero when the
	// sweep has no K=1 baseline.
	MaxSpeedDivergence float64 `json:"max_speed_divergence_ms"`
	MaxTrendDivergence float64 `json:"max_trend_divergence_pup"`
}

// Stitching equivalence bounds between a K=4 sharded view and the unsharded
// model — the same values TestViewShardedWithinBound pins: BP convergence
// tolerance plus the truncated-halo frontier refresh.
const (
	shardSpeedBound = 0.05 // m/s
	shardTrendBound = 0.01 // P(up)
)

// parseShardCounts parses the -shards flag: a comma-separated list of
// positive shard counts, sorted and deduplicated.
func parseShardCounts(s string) []int {
	seen := map[int]bool{}
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, err := strconv.Atoi(part)
		if err != nil || k < 1 {
			log.Fatalf("bad -shards entry %q: want a positive integer", part)
		}
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	if len(out) == 0 {
		log.Fatalf("-shards %q names no shard counts", s)
	}
	sort.Ints(out)
	return out
}

// runShardBench measures the shard sweep at a base network size and again at
// ~4× the road count (both grid dimensions doubled). Pooling across HLM
// groups is disabled so every district trains the same per-road regressions
// the monolith does — partitioning the pooling groups themselves is the one
// documented divergence source the equivalence bound does not cover (see
// DESIGN.md §13).
func runShardBench(fast bool, counts []int) *shardBenchRecord {
	base := dataset.DefaultConfig()
	base.Net.BlocksX, base.Net.BlocksY = 10, 8
	base.HistoryDays = 7
	rounds := 3
	if fast {
		base.Net.BlocksX, base.Net.BlocksY = 6, 5
		base.HistoryDays = 4
		rounds = 2
	}
	big := base
	big.Net.BlocksX *= 2
	big.Net.BlocksY *= 2

	rec := &shardBenchRecord{
		ShardCounts: counts,
		SpeedBound:  shardSpeedBound,
		TrendBound:  shardTrendBound,
	}
	for _, cfg := range []dataset.Config{base, big} {
		rec.Scales = append(rec.Scales, runShardScale(cfg, counts, rounds))
	}

	// Equivalence gate: wherever the sweep measured K=4 against a K=1
	// baseline, the stitched estimates must sit inside the property-test
	// bounds. Latency flatness and rebuild localization are recorded, not
	// gated, so CI stays immune to shared-runner timing noise.
	for _, sc := range rec.Scales {
		for _, c := range sc.Configs {
			if c.Shards != 4 {
				continue
			}
			if c.MaxSpeedDivergence > shardSpeedBound || c.MaxTrendDivergence > shardTrendBound {
				log.Fatalf("shard bench: K=4 stitched estimates diverge from unsharded beyond the equivalence bound at %d roads: |Δspeed| %.4g m/s (bound %g), |ΔPUp| %.4g (bound %g)",
					sc.NumRoads, c.MaxSpeedDivergence, shardSpeedBound, c.MaxTrendDivergence, shardTrendBound)
			}
		}
	}

	fmt.Printf("\n== shard bench ==\n")
	for _, sc := range rec.Scales {
		for _, c := range sc.Configs {
			fmt.Printf("  %5d roads, K=%-2d: build %.3fs, estimate %.4fs/round, localized rebuild %.3fs (%d district(s)), |Δspeed| ≤ %.3g m/s, |ΔPUp| ≤ %.3g\n",
				sc.NumRoads, c.Shards, c.BuildSeconds, c.EstimateSeconds,
				c.LocalizedRebuildSeconds, c.RebuiltDistricts,
				c.MaxSpeedDivergence, c.MaxTrendDivergence)
		}
	}
	return rec
}

// runShardScale sweeps one dataset over the shard counts. Every
// configuration estimates the same slot from the same seed reports, so the
// divergence columns compare like with like.
func runShardScale(cfg dataset.Config, counts []int, rounds int) shardScaleRecord {
	ctx := context.Background()
	log.Printf("shard bench: building %d×%d-block dataset...", cfg.Net.BlocksX, cfg.Net.BlocksY)
	d, err := dataset.Build(cfg)
	if err != nil {
		log.Fatal(err)
	}
	slot, truth := d.NextTruth()
	seedSpeeds := map[roadnet.RoadID]float64{}
	for r := 0; r < d.Net.NumRoads(); r += 10 {
		seedSpeeds[roadnet.RoadID(r)] = truth[roadnet.RoadID(r)]
	}

	sc := shardScaleRecord{NumRoads: d.Net.NumRoads()}
	var baseline *core.Estimate
	for _, k := range counts {
		opts := core.DefaultOptions()
		opts.Shards = k
		// Districts train per-road regressions only: cross-group pooling
		// would otherwise couple roads across district borders beyond what
		// boundary stitching reconciles (DESIGN.md §13).
		opts.HLM.Levels = [][]int{}

		t0 := time.Now()
		st, err := core.NewStore(d.Net, d.DB, opts)
		if err != nil {
			log.Fatalf("shard bench: building K=%d store: %v", k, err)
		}
		c := shardConfigRecord{Shards: k, BuildSeconds: time.Since(t0).Seconds()}
		v := st.View()
		for dd := 0; dd < v.NumShards(); dd++ {
			if v.Shard(dd) != nil {
				c.Districts++
			}
		}
		_, c.BoundaryEdges = v.CorrEdges()

		// Warm-up round first: the serving steady state BP warm-starts from.
		var res *core.Estimate
		if res, err = v.Estimate(ctx, slot, seedSpeeds); err != nil {
			log.Fatalf("shard bench: K=%d estimate: %v", k, err)
		}
		for i := 0; i < rounds; i++ {
			t0 = time.Now()
			if res, err = v.Estimate(ctx, slot, seedSpeeds); err != nil {
				log.Fatalf("shard bench: K=%d estimate: %v", k, err)
			}
			if e := time.Since(t0).Seconds(); c.EstimateSeconds == 0 || e < c.EstimateSeconds {
				c.EstimateSeconds = e
			}
		}
		if k == 1 {
			baseline = res
		} else if baseline != nil {
			for r := range res.Speeds {
				if diff := abs(res.Speeds[r] - baseline.Speeds[r]); diff > c.MaxSpeedDivergence {
					c.MaxSpeedDivergence = diff
				}
				if diff := abs(res.PUp[r] - baseline.PUp[r]); diff > c.MaxTrendDivergence {
					c.MaxTrendDivergence = diff
				}
			}
		}

		// Localized rebuild: a delta confined to one district's owned roads.
		// The staggered store should rebuild and swap exactly that district.
		var swaps int
		st.OnSwap(func(_, _ *core.View) { swaps++ })
		owned := v.Plan().Owned(v.Plan().Owner(0))
		dirty := len(owned) / 10
		if dirty < 3 {
			dirty = 3
		}
		if dirty > len(owned) {
			dirty = len(owned)
		}
		var delta []core.Observation
		for _, id := range owned[:dirty] {
			speed, ok := v.RoadMean(id, slot)
			if !ok || speed <= 0 {
				speed = 8.0
			}
			for i := 0; i < 3; i++ {
				delta = append(delta, core.Observation{Road: id, Slot: slot, Speed: speed})
			}
		}
		if _, err := st.Ingest(delta...); err != nil {
			log.Fatalf("shard bench: K=%d ingest: %v", k, err)
		}
		t0 = time.Now()
		if _, err := st.Rebuild(ctx); err != nil {
			log.Fatalf("shard bench: K=%d rebuild: %v", k, err)
		}
		c.LocalizedRebuildSeconds = time.Since(t0).Seconds()
		c.RebuiltDistricts = swaps

		st.Close()
		sc.Configs = append(sc.Configs, c)
	}
	return sc
}
