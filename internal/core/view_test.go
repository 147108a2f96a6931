package core

import (
	"context"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/roadnet"
)

// buildViewDataset makes a city big enough that a 4-way partition gives every
// district a real road population.
func buildViewDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	cfg := dataset.DefaultConfig()
	cfg.Net.BlocksX, cfg.Net.BlocksY = 6, 5
	cfg.HistoryDays = 4
	d, err := dataset.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// spreadSeeds picks every strideth road with its true speed — across the
// whole bounding box, so a partition of any small K has seeds in every
// district.
func spreadSeeds(d *dataset.Dataset, truth []float64, stride int) map[roadnet.RoadID]float64 {
	seeds := map[roadnet.RoadID]float64{}
	for r := 0; r < d.Net.NumRoads(); r += stride {
		seeds[roadnet.RoadID(r)] = truth[roadnet.RoadID(r)]
	}
	return seeds
}

// goldenRound is one recorded estimation round of testdata/k1_golden.json.
type goldenRound struct {
	Speeds  []float64 `json:"speeds"`
	Rels    []float64 `json:"rels"`
	PUp     []float64 `json:"p_up"`
	TrendUp []bool    `json:"trend_up"`
}

// TestViewK1Golden is the K=1 acceptance gate: a one-district view must
// reproduce the recorded unsharded round on buildViewDataset's first truth
// slot with spreadSeeds(…, 10), for the default and the trend-free round. The
// fixture was recorded from the pre-sharding pipeline, so the identity
// partition must add no halo, restrict nothing and run no stitch round.
func TestViewK1Golden(t *testing.T) {
	raw, err := os.ReadFile("testdata/k1_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden struct {
		Slot      int         `json:"slot"`
		Seeds     int         `json:"seeds"`
		Default   goldenRound `json:"default"`
		TrendFree goldenRound `json:"trend_free"`
	}
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	d := buildViewDataset(t)
	slot, truth := d.NextTruth()
	seeds := spreadSeeds(d, truth, 10)
	if slot != golden.Slot || len(seeds) != golden.Seeds {
		t.Fatalf("dataset drifted from the fixture: slot %d with %d seeds, recorded %d with %d", slot, len(seeds), golden.Slot, golden.Seeds)
	}
	ctx := context.Background()
	for _, shards := range []int{0, 1} {
		opts := DefaultOptions()
		opts.Shards = shards
		v, err := NewView(d.Net, d.DB, opts)
		if err != nil {
			t.Fatal(err)
		}
		if v.Sharded() || v.NumShards() != 1 {
			t.Fatalf("Shards=%d built a sharded view with %d districts", shards, v.NumShards())
		}
		for _, tc := range []struct {
			name string
			opts EstimateOptions
			want goldenRound
		}{
			{"default", EstimateOptions{}, golden.Default},
			{"trend-free", EstimateOptions{TrendFree: true}, golden.TrendFree},
		} {
			got, err := v.EstimateWith(ctx, slot, seeds, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Speeds) != len(tc.want.Speeds) {
				t.Fatalf("Shards=%d %s: %d roads, fixture has %d", shards, tc.name, len(got.Speeds), len(tc.want.Speeds))
			}
			for r := range tc.want.Speeds {
				if absDiff(got.Speeds[r], tc.want.Speeds[r]) > 1e-9 || absDiff(got.Rels[r], tc.want.Rels[r]) > 1e-9 ||
					absDiff(got.PUp[r], tc.want.PUp[r]) > 1e-9 || got.TrendUp[r] != tc.want.TrendUp[r] {
					t.Fatalf("Shards=%d %s road %d diverges from the fixture: speed %v vs %v, rel %v vs %v, pUp %v vs %v, up %v vs %v",
						shards, tc.name, r, got.Speeds[r], tc.want.Speeds[r], got.Rels[r], tc.want.Rels[r],
						got.PUp[r], tc.want.PUp[r], got.TrendUp[r], tc.want.TrendUp[r])
				}
			}
		}
	}
}

// TestViewUnshardedSeedSelectionEqual: the K=1 view delegates seed selection
// to its single model, so the picks match that model's selector exactly.
func TestViewUnshardedSeedSelectionEqual(t *testing.T) {
	ctx := context.Background()
	d := buildViewDataset(t)
	v, err := NewView(d.Net, d.DB, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	k := d.Net.NumRoads() / 10
	want, err := v.Shard(0).SelectSeeds(ctx, k)
	if err != nil {
		t.Fatal(err)
	}
	got, err := v.SelectSeeds(ctx, k)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d seeds, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("seed %d = %d, want %d", i, got[i], want[i])
		}
	}
}

// shardedOptions is the configuration of the K=4 equivalence tests: pooling
// is disabled (an explicit empty Levels set) so the HLM sees no district-
// dependent spatial groups and the only sharding divergence left is the
// boundary stitch itself.
func shardedOptions(shards int) Options {
	opts := DefaultOptions()
	opts.Shards = shards
	opts.HLM.Levels = [][]int{}
	return opts
}

// TestViewShardedWithinBound is the K=4 acceptance property: with pooling
// pinned, boundary-stitched estimates must stay within 0.05 m/s of speed and
// 0.01 of trend marginal of the one-district view on every road.
func TestViewShardedWithinBound(t *testing.T) {
	ctx := context.Background()
	d := buildViewDataset(t)
	slot, truth := d.NextTruth()
	seeds := spreadSeeds(d, truth, 8)

	m, err := NewView(d.Net, d.DB, shardedOptions(0))
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewView(d.Net, d.DB, shardedOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	if !v.Sharded() || v.NumShards() != 4 {
		t.Fatalf("expected a 4-district view, got %d districts", v.NumShards())
	}
	for d := 0; d < 4; d++ {
		if v.Shard(d) == nil {
			t.Fatalf("district %d is empty on a city-scale network", d)
		}
	}

	want, err := m.Estimate(ctx, slot, seeds)
	if err != nil {
		t.Fatal(err)
	}
	got, err := v.Estimate(ctx, slot, seeds)
	if err != nil {
		t.Fatal(err)
	}
	var maxSpeed, maxPUp float64
	for r := range want.Speeds {
		if diff := absDiff(got.Speeds[r], want.Speeds[r]); diff > maxSpeed {
			maxSpeed = diff
		}
		if diff := absDiff(got.PUp[r], want.PUp[r]); diff > maxPUp {
			maxPUp = diff
		}
	}
	t.Logf("K=4 vs unsharded: max |Δspeed| = %.3g m/s, max |ΔPUp| = %.3g", maxSpeed, maxPUp)
	if maxSpeed > 0.05 {
		t.Errorf("max speed divergence %.4g m/s exceeds the 0.05 stitch bound", maxSpeed)
	}
	if maxPUp > 0.01 {
		t.Errorf("max trend-marginal divergence %.4g exceeds the 0.01 stitch bound", maxPUp)
	}
}

// TestViewShardedSeedSelection: sharded selection returns k distinct global
// roads spread over the districts, prepares every district holding one, and
// reports a positive block-diagonal benefit.
func TestViewShardedSeedSelection(t *testing.T) {
	ctx := context.Background()
	d := buildViewDataset(t)
	v, err := NewView(d.Net, d.DB, shardedOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	k := d.Net.NumRoads() / 10
	seeds, err := v.SelectSeeds(ctx, k)
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) != k {
		t.Fatalf("got %d seeds, want %d", len(seeds), k)
	}
	seen := map[roadnet.RoadID]bool{}
	districts := map[int]bool{}
	for _, s := range seeds {
		if int(s) < 0 || int(s) >= d.Net.NumRoads() {
			t.Fatalf("seed %d out of range", s)
		}
		if seen[s] {
			t.Fatalf("seed %d selected twice", s)
		}
		seen[s] = true
		districts[v.Plan().Owner(s)] = true
	}
	if len(districts) < 2 {
		t.Errorf("all %d seeds landed in one district", k)
	}
	if b := v.SeedBenefit(seeds); b <= 0 {
		t.Errorf("seed benefit = %v, want > 0", b)
	}
	// A seeded round runs against the prepared districts.
	slot, truth := d.NextTruth()
	seedSpeeds := map[roadnet.RoadID]float64{}
	for _, s := range seeds {
		seedSpeeds[s] = truth[s]
	}
	if _, err := v.Estimate(ctx, slot, seedSpeeds); err != nil {
		t.Fatal(err)
	}
}

// TestShardedStoreLocalizedRebuild: an ingest delta confined to one district
// rebuilds only that shard — the other districts' models (pointer identity
// and version) survive the swap untouched, and exactly one swap hook runs.
func TestShardedStoreLocalizedRebuild(t *testing.T) {
	ctx := context.Background()
	d := buildViewDataset(t)
	st, err := NewStore(d.Net, d.DB, shardedOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	before := st.View()
	target := before.Plan().Owner(0)
	var swaps atomic.Int64
	st.OnSwap(func(old, new *View) { swaps.Add(1) })

	slot := d.Slot()
	if _, err := st.Ingest(
		Observation{Road: 0, Slot: slot, Speed: 9},
		Observation{Road: 0, Slot: slot, Speed: 9.5},
	); err != nil {
		t.Fatal(err)
	}
	after, err := st.Rebuild(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if after.Version() != before.Version()+1 {
		t.Errorf("view version %d after one localized rebuild of %d", after.Version(), before.Version())
	}
	if got := swaps.Load(); got != 1 {
		t.Errorf("%d swap hooks ran, want 1 (one district rebuilt)", got)
	}
	for dd := 0; dd < 4; dd++ {
		if dd == target {
			if after.Shard(dd) == before.Shard(dd) {
				t.Errorf("district %d owns the delta but was not rebuilt", dd)
			}
			if after.Shard(dd).Version() != before.Shard(dd).Version()+1 {
				t.Errorf("district %d version %d, want %d", dd, after.Shard(dd).Version(), before.Shard(dd).Version()+1)
			}
			continue
		}
		if after.Shard(dd) != before.Shard(dd) {
			t.Errorf("district %d was rebuilt without owning any of the delta", dd)
		}
	}
	if st.BufferedObservations() != 0 {
		t.Errorf("%d observations still buffered", st.BufferedObservations())
	}
}

// TestShardedStoreZeroDowntimeSwap is the sharded -race hammer: estimation
// rounds and ingests interleave with staggered per-district rebuild/swap
// cycles. Every round must succeed on exactly one published view version,
// versions must be monotonically non-decreasing per worker, and rounds must
// overlap at least one swap.
func TestShardedStoreZeroDowntimeSwap(t *testing.T) {
	ctx := context.Background()
	d := buildViewDataset(t)
	st, err := NewStore(d.Net, d.DB, shardedOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	st.Start(StoreConfig{IncrementalMaxDirtyFrac: 0.25}) // records config only
	defer st.Close()
	slot, truth := d.NextTruth()
	seedSpeeds := spreadSeeds(d, truth, 8)

	const (
		workers       = 4
		roundsPerWork = 12
		rebuilds      = 3
	)
	var (
		wg         sync.WaitGroup
		roundsDone atomic.Int64
		swaps      atomic.Int64
		maxVersion atomic.Uint64
	)
	st.OnSwap(func(old, new *View) { swaps.Add(1) })
	rebuildsDone := make(chan struct{})

	// Rebuilder: spray observations across all districts and run staggered
	// rebuilds while rounds and ingests hammer the store.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(rebuildsDone)
		for i := 0; i < rebuilds; i++ {
			batch := make([]Observation, 0, len(seedSpeeds))
			for r, sp := range seedSpeeds {
				batch = append(batch, Observation{Road: r, Slot: slot, Speed: sp * (1 + 0.01*float64(i))})
			}
			if _, err := st.Ingest(batch...); err != nil {
				t.Errorf("Ingest: %v", err)
				return
			}
			if _, err := st.Rebuild(ctx); err != nil {
				t.Errorf("Rebuild %d: %v", i, err)
				return
			}
		}
	}()
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var lastVersion uint64
			for i := 0; ; i++ {
				if i >= roundsPerWork {
					select {
					case <-rebuildsDone:
						return
					default:
					}
				}
				// Interleave a concurrent ingest with the rounds.
				if i%4 == g%4 {
					if _, err := st.Ingest(Observation{Road: roadnet.RoadID(i % d.Net.NumRoads()), Slot: slot, Speed: 8}); err != nil {
						t.Errorf("Ingest: %v", err)
						return
					}
				}
				res, err := st.View().Estimate(context.Background(), slot, seedSpeeds)
				if err != nil {
					t.Errorf("Estimate: %v", err)
					return
				}
				if res.ModelVersion < lastVersion {
					t.Errorf("version went backwards: %d after %d", res.ModelVersion, lastVersion)
					return
				}
				lastVersion = res.ModelVersion
				for v := maxVersion.Load(); res.ModelVersion > v; v = maxVersion.Load() {
					if maxVersion.CompareAndSwap(v, res.ModelVersion) {
						break
					}
				}
				roundsDone.Add(1)
			}
		}(g)
	}
	wg.Wait()

	if got := roundsDone.Load(); got < workers*roundsPerWork {
		t.Fatalf("only %d/%d rounds completed", got, workers*roundsPerWork)
	}
	// 3 rebuild cycles × 4 districts each (seeds land in every district), so
	// well past 1 + rebuilds view versions were published.
	if got := swaps.Load(); got < rebuilds {
		t.Fatalf("%d swaps observed, want ≥ %d", got, rebuilds)
	}
	if final := st.View().Version(); final != uint64(1+swaps.Load()) {
		t.Fatalf("final version %d, want %d (one bump per staggered swap)", final, 1+swaps.Load())
	}
	if maxVersion.Load() < 2 {
		t.Errorf("no round ever saw a swapped-in version; the hammer never overlapped a swap")
	}
}

// TestShardedStoreAutoRebuild: the background loop triggers staggered
// rebuilds on a sharded store too.
func TestShardedStoreAutoRebuild(t *testing.T) {
	d := buildViewDataset(t)
	st, err := NewStore(d.Net, d.DB, shardedOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	st.Start(StoreConfig{RebuildMinObs: 3})
	defer st.Close()
	slot := d.Slot()
	for i := 0; i < 3; i++ {
		if _, err := st.Ingest(Observation{Road: roadnet.RoadID(i), Slot: slot, Speed: 8 + float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for st.View().Version() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("no rebuild after min-obs trigger; version still %d", st.View().Version())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
