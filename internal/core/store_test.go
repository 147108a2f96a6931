package core

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/roadnet"
)

// buildStore makes a small dataset and a store over it.
func buildStore(t *testing.T) (*dataset.Dataset, *Store) {
	t.Helper()
	cfg := dataset.DefaultConfig()
	cfg.Net.BlocksX, cfg.Net.BlocksY = 5, 4
	cfg.HistoryDays = 4
	d, err := dataset.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStore(d.Net, d.DB, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return d, st
}

func TestStorePublishesVersionOne(t *testing.T) {
	ctx := context.Background()
	d, st := buildStore(t)
	if v := st.View(); v.Version() != 1 {
		t.Fatalf("initial view version = %d, want 1", v.Version())
	}
	res, err := st.View().Estimate(ctx, d.Slot(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.ModelVersion != 1 {
		t.Errorf("round reported version %d, want 1", res.ModelVersion)
	}
}

func TestStoreIngestValidation(t *testing.T) {
	d, st := buildStore(t)
	n := d.Net.NumRoads()
	bad := []Observation{
		{Road: roadnet.RoadID(n), Slot: 0, Speed: 10},
		{Road: 0, Slot: -1, Speed: 10},
		{Road: 0, Slot: 0, Speed: 0},
		{Road: 0, Slot: 0, Speed: -2},
		{Road: 0, Slot: 0, Speed: math.NaN()},
		{Road: 0, Slot: 0, Speed: math.Inf(1)},
	}
	for _, o := range bad {
		if _, err := st.Ingest(o); err == nil {
			t.Errorf("observation %+v accepted", o)
		} else if !errors.Is(err, ErrInvalidInput) {
			t.Errorf("observation %+v: error %v is not ErrInvalidInput", o, err)
		}
	}
	// A batch with one bad entry is rejected whole: nothing buffered.
	if _, err := st.Ingest(Observation{Road: 0, Slot: 0, Speed: 8}, bad[2]); err == nil {
		t.Error("mixed batch accepted")
	}
	if got := st.BufferedObservations(); got != 0 {
		t.Fatalf("%d observations buffered after rejected batches", got)
	}
	if n, err := st.Ingest(Observation{Road: 0, Slot: 0, Speed: 8}); err != nil || n != 1 {
		t.Fatalf("valid observation: buffered=%d err=%v", n, err)
	}
}

// TestStoreRebuildSwapsVersionAndFoldsObservations: a rebuild publishes a
// higher version trained on the union of the old snapshot and the ingested
// observations, and the prepared seed set survives the swap.
func TestStoreRebuildSwapsVersionAndFoldsObservations(t *testing.T) {
	ctx := context.Background()
	d, st := buildStore(t)
	seeds, err := st.SelectSeeds(ctx, st.View(), d.Net.NumRoads()/10)
	if err != nil {
		t.Fatal(err)
	}
	before := st.View()
	obsIn := []Observation{}
	slot, truth := d.NextTruth()
	for _, s := range seeds {
		obsIn = append(obsIn, Observation{Road: s, Slot: slot, Speed: truth[s]})
	}
	if _, err := st.Ingest(obsIn...); err != nil {
		t.Fatal(err)
	}
	m, err := st.Rebuild(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m != st.View() {
		t.Fatal("rebuild did not publish the view it returned")
	}
	if m.Version() != before.Version()+1 {
		t.Errorf("version %d after rebuild of %d", m.Version(), before.Version())
	}
	if m.ObservationCount() < before.ObservationCount() {
		t.Errorf("observation count shrank: %d → %d", before.ObservationCount(), m.ObservationCount())
	}
	if st.BufferedObservations() != 0 {
		t.Errorf("%d observations still buffered after rebuild", st.BufferedObservations())
	}
	// The re-specialized seed model is live: a seeded round still runs and
	// reports the new version.
	seedSpeeds := map[roadnet.RoadID]float64{}
	for _, s := range seeds {
		seedSpeeds[s] = truth[s]
	}
	res, err := st.View().Estimate(ctx, slot, seedSpeeds)
	if err != nil {
		t.Fatal(err)
	}
	if res.ModelVersion != m.Version() {
		t.Errorf("round version %d, want %d", res.ModelVersion, m.Version())
	}
}

// TestStoreOnSwapHook: swap hooks see the replaced and published models.
func TestStoreOnSwapHook(t *testing.T) {
	ctx := context.Background()
	d, st := buildStore(t)
	var gotOld, gotNew uint64
	st.OnSwap(func(old, new *View) {
		gotOld, gotNew = old.Version(), new.Version()
	})
	if _, err := st.Ingest(Observation{Road: 0, Slot: d.Slot(), Speed: 9}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Rebuild(ctx); err != nil {
		t.Fatal(err)
	}
	if gotOld != 1 || gotNew != 2 {
		t.Errorf("hook saw %d→%d, want 1→2", gotOld, gotNew)
	}
}

// TestStoreAutoRebuildMinObs: the count trigger rebuilds without an
// explicit Rebuild call.
func TestStoreAutoRebuildMinObs(t *testing.T) {
	d, st := buildStore(t)
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

// TestStoreZeroDowntimeSwap is the acceptance hammer: ≥100 estimation
// rounds run concurrently with ≥3 background rebuild/swap cycles. No round
// may fail, every round must report exactly one coherent model version that
// was actually published, and rounds must keep completing while a rebuild
// is in flight (they never block on it — the store resolves the current
// model with a single atomic load). Run with -race: before the Model/Store
// split this interleaving tears the frozen estimator state.
func TestStoreZeroDowntimeSwap(t *testing.T) {
	ctx := context.Background()
	d, st := buildStore(t)
	seeds, err := st.SelectSeeds(ctx, st.View(), d.Net.NumRoads()/10)
	if err != nil {
		t.Fatal(err)
	}
	slot, truth := d.NextTruth()
	seedSpeeds := map[roadnet.RoadID]float64{}
	for _, s := range seeds {
		seedSpeeds[s] = truth[s]
	}

	const (
		workers       = 5
		roundsPerWork = 24 // 120 rounds total
		rebuilds      = 4
	)
	var (
		wg            sync.WaitGroup
		roundsDone    atomic.Int64
		versionCounts [2 + rebuilds]atomic.Int64 // index = ModelVersion
	)
	rebuildsDone := make(chan struct{})

	// Rebuilder: ingest a few fresh observations and swap, 4 times, while
	// rounds hammer the store.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(rebuildsDone)
		for i := 0; i < rebuilds; i++ {
			obsBatch := make([]Observation, 0, len(seeds))
			for _, s := range seeds {
				obsBatch = append(obsBatch, Observation{Road: s, Slot: slot, Speed: truth[s] * (1 + 0.01*float64(i))})
			}
			if _, err := st.Ingest(obsBatch...); err != nil {
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
		go func() {
			defer wg.Done()
			// Run at least roundsPerWork rounds, and keep going until every
			// rebuild has landed so rounds provably overlap the swaps.
			for i := 0; ; i++ {
				if i >= roundsPerWork {
					select {
					case <-rebuildsDone:
						return
					default:
					}
				}
				res, err := st.View().Estimate(ctx, slot, seedSpeeds)
				if err != nil {
					t.Errorf("Estimate: %v", err)
					return
				}
				v := res.ModelVersion
				if v < 1 || v > uint64(1+rebuilds) {
					t.Errorf("round reported impossible version %d", v)
					return
				}
				versionCounts[v].Add(1)
				roundsDone.Add(1)
			}
		}()
	}
	wg.Wait()

	if got := roundsDone.Load(); got < workers*roundsPerWork {
		t.Fatalf("only %d/%d rounds completed", got, workers*roundsPerWork)
	}
	final := st.View().Version()
	if final != uint64(1+rebuilds) {
		t.Fatalf("final version %d, want %d", final, 1+rebuilds)
	}
	var distinct int
	for v := 1; v < len(versionCounts); v++ {
		if versionCounts[v].Load() > 0 {
			distinct++
		}
	}
	t.Logf("rounds per version: %v (distinct=%d)", func() []int64 {
		out := make([]int64, 0, len(versionCounts))
		for i := range versionCounts {
			out = append(out, versionCounts[i].Load())
		}
		return out
	}(), distinct)
	if distinct < 2 {
		t.Errorf("all rounds saw a single version; the hammer never overlapped a swap")
	}
}

// TestStoreCloseDrainsRebuild: Close returns only after an in-flight
// rebuild has finished its swap, and ingestion fails afterwards.
func TestStoreCloseDrainsRebuild(t *testing.T) {
	ctx := context.Background()
	d, st := buildStore(t)
	st.Start(StoreConfig{RebuildMinObs: 1})
	if _, err := st.Ingest(Observation{Road: 1, Slot: d.Slot(), Speed: 7}); err != nil {
		t.Fatal(err)
	}
	st.Close()
	st.Close() // idempotent
	if _, err := st.Ingest(Observation{Road: 1, Slot: d.Slot(), Speed: 7}); err == nil {
		t.Error("ingest accepted after Close")
	}
	// Whatever the loop managed before Close, the published model is intact.
	if _, err := st.View().Estimate(ctx, d.Slot(), nil); err != nil {
		t.Errorf("estimate after Close: %v", err)
	}
}
