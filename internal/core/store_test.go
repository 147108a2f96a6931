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
	"repro/internal/seedsel"
)

// buildStore makes a small dataset and a store over it.
func buildStore(t *testing.T) (*dataset.Dataset, *Store) {
	t.Helper()
	d := buildCity(t, 5, 4)
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

// TestStoreIngestBufferBounded: with no rebuild draining it — none armed,
// or every one failing — the ingest buffer stops at the published view's
// history size. A batch that would pass it is refused whole with
// ErrBufferFull and counted once, and a successful rebuild makes room. The
// consecutive-failure gauge counts the failed rebuilds, ignores a cancelled
// one and reads 0 after the success.
func TestStoreIngestBufferBounded(t *testing.T) {
	ctx := context.Background()
	d, st := buildStore(t)
	defer st.Close()
	batch := func(n int) []Observation {
		out := make([]Observation, n)
		for i := range out {
			out[i] = Observation{Road: roadnet.RoadID(i % d.Net.NumRoads()), Slot: d.Slot(), Speed: 8}
		}
		return out
	}
	limit := st.View().ObservationCount()
	if n, err := st.Ingest(batch(limit - 1)...); err != nil || n != limit-1 {
		t.Fatalf("filling to one below the limit %d: buffered=%d err=%v", limit, n, err)
	}
	refused := ingestRefused.Value()
	if _, err := st.Ingest(batch(2)...); !errors.Is(err, ErrBufferFull) {
		t.Fatalf("batch past the limit: error %v, want ErrBufferFull", err)
	}
	if got := ingestRefused.Value() - refused; got != 1 {
		t.Errorf("refused-batch counter moved by %v, want 1", got)
	}
	if n, err := st.Ingest(batch(1)...); err != nil || n != limit {
		t.Fatalf("batch reaching the limit: buffered=%d err=%v", n, err)
	}
	st.failRebuild = func() error { return errors.New("injected rebuild failure") }
	for want := 1.0; want <= 2; want++ {
		if _, err := st.Rebuild(ctx); err == nil {
			t.Fatal("injected failure did not fail the rebuild")
		}
		if got := rebuildFailures.Value(); got != want {
			t.Errorf("consecutive-failure gauge %v after %v failed rebuilds", got, want)
		}
	}
	if _, err := st.Ingest(batch(1)...); !errors.Is(err, ErrBufferFull) {
		t.Fatalf("after a failed rebuild: error %v, want ErrBufferFull", err)
	}
	if got := st.BufferedObservations(); got != limit {
		t.Fatalf("%d observations buffered, want the limit %d", got, limit)
	}
	st.failRebuild = nil
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := st.Rebuild(canceled); !errors.Is(err, context.Canceled) {
		t.Fatalf("rebuild under a cancelled context: error %v, want context.Canceled", err)
	}
	if got := rebuildFailures.Value(); got != 2 {
		t.Errorf("consecutive-failure gauge %v after a cancelled rebuild, want 2", got)
	}
	if _, err := st.Rebuild(ctx); err != nil {
		t.Fatal(err)
	}
	if got := rebuildFailures.Value(); got != 0 {
		t.Errorf("consecutive-failure gauge %v after a successful rebuild, want 0", got)
	}
	if n, err := st.Ingest(batch(1)...); err != nil || n != 1 {
		t.Fatalf("after a rebuild drained the buffer: buffered=%d err=%v", n, err)
	}
}

// TestStoreIngestRejectsSpeedBeyondFloat32: the history keeps float32
// profiles, so one huge but finite report used to become a +Inf profile
// mean after the next rebuild, and the round then served its road at +Inf
// m/s. Ingest rejects such a speed, math.MaxFloat32 included, as invalid
// input; the class ceiling is accepted and keeps every estimate finite.
func TestStoreIngestRejectsSpeedBeyondFloat32(t *testing.T) {
	ctx := context.Background()
	d, st := buildStore(t)
	defer st.Close()
	const road = 7
	for _, speed := range []float64{1e300, math.MaxFloat32} {
		if _, err := st.Ingest(Observation{Road: road, Slot: d.Slot(), Speed: speed}); !errors.Is(err, ErrInvalidInput) {
			t.Errorf("Ingest of %g m/s: error %v, want ErrInvalidInput", speed, err)
		}
	}
	ceiling := maxFreeFlowFactor * d.Net.Road(road).Class.FreeFlowSpeed()
	if _, err := st.Ingest(Observation{Road: road, Slot: d.Slot(), Speed: ceiling}); err != nil {
		t.Fatalf("Ingest of the %.4g m/s ceiling: %v", ceiling, err)
	}
	if _, err := st.Rebuild(ctx); err != nil {
		t.Fatal(err)
	}
	res, err := st.View().Estimate(ctx, d.Slot(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for r, v := range res.Speeds {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			t.Errorf("road %d served at %v m/s", r, v)
		}
	}
}

// TestStoreIngestRefusesImplausibleSpeed: on a road of every class, Ingest
// accepts maxFreeFlowFactor times the class's free-flow speed and refuses
// the next float above it and a 1e9 m/s report, which a rebuild would fold
// into the road's history and serve from then on.
func TestStoreIngestRefusesImplausibleSpeed(t *testing.T) {
	d, st := buildStore(t)
	defer st.Close()
	seen := map[roadnet.RoadClass]bool{}
	for r := 0; r < d.Net.NumRoads(); r++ {
		road := d.Net.Road(roadnet.RoadID(r))
		if seen[road.Class] {
			continue
		}
		seen[road.Class] = true
		ceiling := maxFreeFlowFactor * road.Class.FreeFlowSpeed()
		for _, speed := range []float64{math.Nextafter(ceiling, math.Inf(1)), 1e9} {
			if _, err := st.Ingest(Observation{Road: road.ID, Slot: d.Slot(), Speed: speed}); !errors.Is(err, ErrInvalidInput) {
				t.Errorf("%s road %d: Ingest of %g m/s: error %v, want ErrInvalidInput", road.Class, r, speed, err)
			}
		}
		if _, err := st.Ingest(Observation{Road: road.ID, Slot: d.Slot(), Speed: ceiling}); err != nil {
			t.Errorf("%s road %d: Ingest of the %.4g m/s ceiling: %v", road.Class, r, ceiling, err)
		}
	}
	if !seen[roadnet.Local] || !seen[roadnet.Highway] {
		t.Fatalf("test city lacks a local or a highway road: classes %v", seen)
	}
	if got, want := st.BufferedObservations(), len(seen); got != want {
		t.Errorf("%d observations buffered, want the %d ceilings", got, want)
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

// TestStoreConcurrentIngestSwap is the -race hammer with writers on the
// round side: estimation rounds interleave with their own Ingest calls while
// rebuild/swap cycles run. Every round must succeed, versions must never go
// backwards within a worker, every swap must fire OnSwap exactly once, and
// rounds must overlap at least one swap.
func TestStoreConcurrentIngestSwap(t *testing.T) {
	ctx := context.Background()
	d, st := buildStore(t)
	st.Start(StoreConfig{IncrementalMaxDirtyFrac: 0.25}) // no triggers: records config only
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
				if i%4 == g%4 {
					if _, err := st.Ingest(Observation{Road: roadnet.RoadID(i % d.Net.NumRoads()), Slot: slot, Speed: 8}); err != nil {
						t.Errorf("Ingest: %v", err)
						return
					}
				}
				res, err := st.View().Estimate(ctx, slot, seedSpeeds)
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
	if got := swaps.Load(); got != rebuilds {
		t.Fatalf("%d swaps observed, want %d", got, rebuilds)
	}
	if final := st.View().Version(); final != uint64(1+rebuilds) {
		t.Fatalf("final version %d, want %d (one bump per swap)", final, 1+rebuilds)
	}
	if maxVersion.Load() < 2 {
		t.Errorf("no round ever saw a swapped-in version; the hammer never overlapped a swap")
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

// gatedSelector is lazy greedy behind a gate: while closed is set, SelectCtx
// announces itself on entered and waits for open to be closed before it
// selects, so a test can park a selection at a known point.
type gatedSelector struct {
	seedsel.Lazy
	closed  atomic.Bool
	entered chan struct{}
	open    chan struct{}
}

func (g *gatedSelector) SelectCtx(ctx context.Context, p *seedsel.Problem, k int) ([]roadnet.RoadID, error) {
	if g.closed.Load() {
		g.entered <- struct{}{}
		<-g.open
	}
	return g.Lazy.SelectCtx(ctx, p, k)
}

// TestSeedSetSelectedDuringRebuildReachesSuccessor: a seed set whose
// selection runs on version 1 while a rebuild builds version 2 reaches
// version 2, whichever side finishes last. If the selection completes after
// the publish, SelectSeeds specialises the published view too; if it
// completes after the rebuild read the recorded set but before the publish,
// the rebuild catches its successor up. A gated selector parks the
// selection, and the failRebuild seam, which runs after the rebuild read the
// set, completes it mid-build; nothing sleeps.
func TestSeedSetSelectedDuringRebuildReachesSuccessor(t *testing.T) {
	for _, tc := range []struct {
		name        string
		duringBuild bool
	}{
		{"selection completes after publish", false},
		{"selection completes during build", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			d := buildCity(t, 5, 4)
			sel := &gatedSelector{entered: make(chan struct{}), open: make(chan struct{})}
			opts := DefaultOptions()
			opts.Selector = sel
			st, err := NewStore(d.Net, d.DB, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if _, err := st.SelectSeeds(ctx, st.View(), 5); err != nil {
				t.Fatal(err)
			}

			type result struct {
				seeds []roadnet.RoadID
				err   error
			}
			done := make(chan result, 1)
			v1 := st.View()
			sel.closed.Store(true)
			go func() {
				seeds, err := st.SelectSeeds(ctx, v1, 12)
				done <- result{seeds, err}
			}()
			<-sel.entered
			var second result
			finish := func() {
				close(sel.open)
				second = <-done
			}
			if tc.duringBuild {
				st.failRebuild = func() error { finish(); return nil }
			}
			v2, err := st.Rebuild(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if !tc.duringBuild {
				finish()
			}
			if second.err != nil {
				t.Fatal(second.err)
			}
			if v2.Version() != 2 || st.View() != v2 {
				t.Fatalf("published version %d, rebuild returned version %d", st.View().Version(), v2.Version())
			}
			if sm := v2.seedModel.Load(); sm == nil || !sm.SpecializedTo(second.seeds) {
				t.Errorf("version 2 is not specialised to the %d-seed set selected during its rebuild", len(second.seeds))
			}
			if sm := v1.seedModel.Load(); sm == nil || !sm.SpecializedTo(second.seeds) {
				t.Errorf("version 1, the view the selection ran on, is not specialised to its %d seeds", len(second.seeds))
			}
		})
	}
}
