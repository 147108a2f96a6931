package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/roadnet"
)

// buildTwinStores builds one dataset and two independent stores over the same
// network and history snapshot, so incremental and full rebuilds can be
// compared on identical inputs.
func buildTwinStores(t *testing.T) (*dataset.Dataset, *Store, *Store) {
	t.Helper()
	cfg := dataset.DefaultConfig()
	cfg.Net.BlocksX, cfg.Net.BlocksY = 5, 4
	cfg.HistoryDays = 4
	d, err := dataset.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := NewStore(d.Net, d.DB, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	full, err := NewStore(d.Net, d.DB, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return d, inc, full
}

// deltaObservations is a small observation stream touching a handful of
// roads — well under any reasonable dirty-fraction threshold.
func deltaObservations(d *dataset.Dataset) []Observation {
	slot := d.Slot()
	var out []Observation
	for r := 0; r < 5; r++ {
		for k := 0; k < 3; k++ {
			out = append(out, Observation{Road: roadnet.RoadID(r), Slot: slot, Speed: 8.5 + 0.3*float64(r) + 0.1*float64(k)})
		}
	}
	return out
}

// atMeanDelta builds observations at each road's current historical mean for
// slot. An at-mean sample is a fixed point of the profile-class mean, so the
// relative series keeps its signs and the correlation graph keeps its shape —
// exactly the kind of delta the incremental path is built for — while the
// per-slot aggregates (counts, variance) still go dirty and retrain. Roads
// without a usable mean at the slot are skipped.
func atMeanDelta(m *Model, slot int, roads []roadnet.RoadID, per int) []Observation {
	db := m.DB()
	var out []Observation
	for _, r := range roads {
		mean, ok := db.Mean(r, slot)
		if !ok || mean <= 0 {
			continue
		}
		for k := 0; k < per; k++ {
			out = append(out, Observation{Road: r, Slot: slot, Speed: mean})
		}
	}
	return out
}

// firstRoads returns the first n road IDs.
func firstRoads(n int) []roadnet.RoadID {
	out := make([]roadnet.RoadID, n)
	for i := range out {
		out[i] = roadnet.RoadID(i)
	}
	return out
}

// TestStoreIncrementalMatchesFull is the equivalence property test behind the
// delta path: the same observation stream folded in by an incremental rebuild
// and by a full rebuild must yield the exact same correlation-graph topology
// and estimates within a tight bound. Both build their BP topology the same
// way, so it matches slot for slot. The only tolerated divergences are BP's
// convergence tolerance (the incremental model warm-starts from the
// predecessor's beliefs, remapped onto its topology, so it stops at a
// different point within Tolerance of the fixed point) and the stale
// group-level predictors on roads hlm.Retrain copied verbatim.
func TestStoreIncrementalMatchesFull(t *testing.T) {
	ctx := context.Background()
	d, stInc, stFull := buildTwinStores(t)
	stInc.Start(StoreConfig{IncrementalMaxDirtyFrac: 0.25}) // no triggers: records config only
	defer stInc.Close()
	defer stFull.Close()

	slot, truth := d.NextTruth()
	seedSpeeds := map[roadnet.RoadID]float64{}
	for r := 0; r < d.Net.NumRoads(); r += 10 {
		seedSpeeds[roadnet.RoadID(r)] = truth[roadnet.RoadID(r)]
	}

	// Run one round on the incremental store before the rebuild so the
	// predecessor has converged beliefs to hand to its successor: the rebuild
	// below exercises the warm-start path, not just the topology build.
	if _, err := stInc.View().Estimate(ctx, slot, seedSpeeds); err != nil {
		t.Fatal(err)
	}

	delta := atMeanDelta(stInc.View().Shard(0), slot, firstRoads(5), 3)
	if len(delta) == 0 {
		t.Fatal("no road has a usable mean at the test slot")
	}
	if _, err := stInc.Ingest(delta...); err != nil {
		t.Fatal(err)
	}
	if _, err := stFull.Ingest(delta...); err != nil {
		t.Fatal(err)
	}
	mInc, err := stInc.Rebuild(ctx)
	if err != nil {
		t.Fatal(err)
	}
	mFull, err := stFull.Rebuild(ctx)
	if err != nil {
		t.Fatal(err)
	}

	if got := mInc.RebuildMode(); got != "incremental" {
		t.Fatalf("delta rebuild mode = %q, want incremental", got)
	}
	if got := mFull.RebuildMode(); got != "full" {
		t.Fatalf("full store rebuild mode = %q, want full", got)
	}
	if mInc.Version() != 2 || mFull.Version() != 2 {
		t.Fatalf("versions after one rebuild: incremental=%d full=%d, want 2 and 2", mInc.Version(), mFull.Version())
	}
	if mInc.ObservationCount() != mFull.ObservationCount() {
		t.Errorf("observation counts diverge: incremental=%d full=%d", mInc.ObservationCount(), mFull.ObservationCount())
	}

	// Graph topology must agree exactly: corr.Rescore promises bitwise
	// equality with a full corr.Build over the same rolled-forward history.
	gi, gf := mInc.Shard(0).Graph(), mFull.Shard(0).Graph()
	if gi.NumRoads() != gf.NumRoads() || gi.NumEdges() != gf.NumEdges() {
		t.Fatalf("graph shape diverges: incremental %d roads / %d edges, full %d roads / %d edges",
			gi.NumRoads(), gi.NumEdges(), gf.NumRoads(), gf.NumEdges())
	}
	for r := 0; r < gi.NumRoads(); r++ {
		ei, ef := gi.Neighbors(roadnet.RoadID(r)), gf.Neighbors(roadnet.RoadID(r))
		if len(ei) != len(ef) {
			t.Fatalf("road %d: degree %d (incremental) vs %d (full)", r, len(ei), len(ef))
		}
		for k := range ei {
			if ei[k] != ef[k] {
				t.Fatalf("road %d edge %d: %+v (incremental) vs %+v (full)", r, k, ei[k], ef[k])
			}
		}
	}

	// Estimates on the successors must agree within the equivalence bound.
	resInc, err := mInc.Estimate(ctx, slot, seedSpeeds)
	if err != nil {
		t.Fatal(err)
	}
	resFull, err := mFull.Estimate(ctx, slot, seedSpeeds)
	if err != nil {
		t.Fatal(err)
	}
	var maxSpeed, maxPUp float64
	for r := range resInc.Speeds {
		if d := absDiff(resInc.Speeds[r], resFull.Speeds[r]); d > maxSpeed {
			maxSpeed = d
		}
		if d := absDiff(resInc.PUp[r], resFull.PUp[r]); d > maxPUp {
			maxPUp = d
		}
	}
	t.Logf("incremental vs full: max |Δspeed| = %.3g m/s, max |ΔPUp| = %.3g", maxSpeed, maxPUp)
	if maxSpeed > 0.05 {
		t.Errorf("max speed divergence %.4g m/s exceeds the 0.05 equivalence bound", maxSpeed)
	}
	if maxPUp > 0.01 {
		t.Errorf("max trend-marginal divergence %.4g exceeds the 0.01 equivalence bound", maxPUp)
	}
}

func absDiff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}

// TestStoreIncrementalDisabledByFraction: a dirty fraction above the
// configured threshold falls back to a full rebuild, and a zero threshold
// disables the delta path entirely.
func TestStoreIncrementalDisabledByFraction(t *testing.T) {
	ctx := context.Background()
	d, st := buildStore(t)
	st.Start(StoreConfig{IncrementalMaxDirtyFrac: 1e-9}) // threshold below any real delta
	defer st.Close()
	if _, err := st.Ingest(deltaObservations(d)...); err != nil {
		t.Fatal(err)
	}
	m, err := st.Rebuild(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.RebuildMode(); got != "full" {
		t.Errorf("rebuild mode with sub-delta threshold = %q, want full", got)
	}
}

// TestStoreLoopRetriesAfterFailedRebuild is the stranded-buffer regression
// test: a min-obs kick consumed by a failing rebuild must not leave the
// buffered observations waiting forever. The pre-fix loop consumed the kick,
// the rebuild failed keeping the buffer, and — with no timer and no further
// ingest — nothing ever re-armed it, so this test times out against the old
// loop body. The fixed loop re-checks the trigger after every rebuild.
func TestStoreLoopRetriesAfterFailedRebuild(t *testing.T) {
	d, st := buildStore(t)
	var fails atomic.Int32
	st.mu.Lock()
	st.failRebuild = func() error {
		if fails.Add(1) == 1 {
			return errors.New("injected rebuild failure")
		}
		return nil
	}
	st.mu.Unlock()

	st.Start(StoreConfig{RebuildMinObs: 3})
	defer st.Close()
	slot := d.Slot()
	for i := 0; i < 3; i++ {
		if _, err := st.Ingest(Observation{Road: roadnet.RoadID(i), Slot: slot, Speed: 8 + float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// No further Ingest and no timer: only the loop's post-rebuild re-check
	// can recover from the injected failure.
	deadline := time.Now().Add(30 * time.Second)
	for st.View().Version() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("observations stranded after failed rebuild: version still %d, %d buffered, %d attempts",
				st.View().Version(), st.BufferedObservations(), fails.Load())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := fails.Load(); got < 2 {
		t.Errorf("rebuild attempts = %d, want ≥ 2 (one failure, one retry)", got)
	}
	if got := st.BufferedObservations(); got != 0 {
		t.Errorf("%d observations still buffered after the retry succeeded", got)
	}
}

// TestStoreVersionContinuityAcrossFailedRebuild: version stamps are allocated
// at publish, so a failed rebuild consumes nothing and published versions
// never skip. Before the fix the stamp was taken before the build, leaving a
// gap for every failed attempt.
func TestStoreVersionContinuityAcrossFailedRebuild(t *testing.T) {
	ctx := context.Background()
	d, st := buildStore(t)
	if _, err := st.Ingest(Observation{Road: 0, Slot: d.Slot(), Speed: 9}); err != nil {
		t.Fatal(err)
	}
	st.mu.Lock()
	st.failRebuild = func() error { return errors.New("injected rebuild failure") }
	st.mu.Unlock()
	if _, err := st.Rebuild(ctx); err == nil {
		t.Fatal("rebuild succeeded despite injected failure")
	}
	if got := st.View().Version(); got != 1 {
		t.Fatalf("failed rebuild changed the published version to %d", got)
	}
	st.mu.Lock()
	st.failRebuild = nil
	st.mu.Unlock()
	m, err := st.Rebuild(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Version() != 2 {
		t.Errorf("version after failed-then-successful rebuild = %d, want exactly 2 (no gap)", m.Version())
	}
}

// TestStoreRebuildReleasesConsumedBuffer: when a rebuild consumes most of the
// ingest buffer, the small remainder must be copied to a fresh slice instead
// of re-slicing the old backing array — a re-slice pins the whole consumed
// prefix against garbage collection. The failRebuild seam runs after the
// rebuild snapshots its pending prefix, so observations ingested inside it
// are exactly the unconsumed remainder at publish time.
func TestStoreRebuildReleasesConsumedBuffer(t *testing.T) {
	ctx := context.Background()
	d, st := buildStore(t)
	slot := d.Slot()
	big := make([]Observation, 2048)
	for i := range big {
		big[i] = Observation{Road: roadnet.RoadID(i % d.Net.NumRoads()), Slot: slot, Speed: 8}
	}
	if _, err := st.Ingest(big...); err != nil {
		t.Fatal(err)
	}
	st.mu.Lock()
	st.failRebuild = func() error {
		_, err := st.Ingest(
			Observation{Road: 0, Slot: slot, Speed: 9},
			Observation{Road: 1, Slot: slot, Speed: 9},
			Observation{Road: 2, Slot: slot, Speed: 9},
		)
		return err
	}
	st.mu.Unlock()
	if _, err := st.Rebuild(ctx); err != nil {
		t.Fatal(err)
	}
	st.mu.Lock()
	gotLen, gotCap := len(st.buf), cap(st.buf)
	st.failRebuild = nil
	st.mu.Unlock()
	if gotLen != 3 {
		t.Fatalf("%d observations buffered after rebuild, want the 3 late arrivals", gotLen)
	}
	if gotCap != gotLen {
		t.Errorf("buffer cap = %d for %d observations: the consumed prefix's backing array is still pinned", gotCap, gotLen)
	}
	// Fully consumed buffer drops to nil so even the remainder's array goes.
	if _, err := st.Rebuild(ctx); err != nil {
		t.Fatal(err)
	}
	st.mu.Lock()
	buf := st.buf
	st.mu.Unlock()
	if buf != nil {
		t.Errorf("buffer not released after full consumption: len=%d cap=%d", len(buf), cap(buf))
	}
}

// TestStoreIncrementalZeroDowntimeSwap is the -race hammer over the delta
// path: estimation rounds interleave with Ingest and incremental
// rebuild/swap cycles. Every round must succeed on exactly one published
// version, every swap must take the incremental path (the delta touches
// ~10% of roads, under the 25% threshold), and rounds must overlap at least
// one swap.
func TestStoreIncrementalZeroDowntimeSwap(t *testing.T) {
	ctx := context.Background()
	d, st := buildStore(t)
	st.Start(StoreConfig{IncrementalMaxDirtyFrac: 0.25})
	defer st.Close()
	seeds, err := st.SelectSeeds(ctx, st.View(), d.Net.NumRoads()/10)
	if err != nil {
		t.Fatal(err)
	}
	slot, truth := d.NextTruth()
	seedSpeeds := map[roadnet.RoadID]float64{}
	for _, s := range seeds {
		seedSpeeds[s] = truth[s]
	}

	var modeMu sync.Mutex
	var modes []string
	st.OnSwap(func(old, new *View) {
		modeMu.Lock()
		modes = append(modes, new.RebuildMode())
		modeMu.Unlock()
	})

	const (
		workers       = 5
		roundsPerWork = 24
		rebuilds      = 4
	)
	var (
		wg            sync.WaitGroup
		roundsDone    atomic.Int64
		versionCounts [2 + rebuilds]atomic.Int64
	)
	rebuildsDone := make(chan struct{})

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(rebuildsDone)
		for i := 0; i < rebuilds; i++ {
			// At-mean observations keep the correlation graph's shape, so
			// every cycle stays on the incremental path (see atMeanDelta).
			obsBatch := atMeanDelta(st.View().Shard(0), slot, seeds, 2)
			if len(obsBatch) == 0 {
				t.Error("no seed road has a usable mean at the test slot")
				return
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
			for i := 0; ; i++ {
				if i >= roundsPerWork {
					select {
					case <-rebuildsDone:
						return
					default:
					}
				}
				res, err := st.View().Estimate(context.Background(), slot, seedSpeeds)
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
	if final := st.View().Version(); final != uint64(1+rebuilds) {
		t.Fatalf("final version %d, want %d", final, 1+rebuilds)
	}
	var distinct int
	for v := 1; v < len(versionCounts); v++ {
		if versionCounts[v].Load() > 0 {
			distinct++
		}
	}
	if distinct < 2 {
		t.Errorf("all rounds saw a single version; the hammer never overlapped a swap")
	}
	modeMu.Lock()
	defer modeMu.Unlock()
	if len(modes) != rebuilds {
		t.Fatalf("%d swaps observed, want %d", len(modes), rebuilds)
	}
	for i, mode := range modes {
		if mode != "incremental" {
			t.Errorf("swap %d took mode %q, want incremental", i, mode)
		}
	}
}
