package api

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/roadnet"
)

// TestSeedCacheHitRespecializes: a /v1/seeds cache hit serves its set on a
// view specialized to that set. Request k=12, then k=3, whose selection
// re-specializes the view to its own 3 seeds, then k=12 again from the
// cache: an estimate on the 12 seeds must answer bit for bit as it did
// right after the first k=12 request.
func TestSeedCacheHitRespecializes(t *testing.T) {
	d, st := freshStore(t)
	srv, err := newServer(st)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	slot, truth := d.Slot(), d.Truth()

	seedsFor := func(k int) []roadnet.RoadID {
		var body seedsResponse
		if code := getJSON(t, fmt.Sprintf("%s/v1/seeds?k=%d", ts.URL, k), &body); code != http.StatusOK {
			t.Fatalf("seeds k=%d: status %d", k, code)
		}
		return body.Seeds
	}
	estimateOn := func(seeds []roadnet.RoadID) estimateResponse {
		reports := make([]seedReport, len(seeds))
		for i, r := range seeds {
			reports[i] = seedReport{Road: r, Speed: truth[r]}
		}
		payload, err := json.Marshal(estimateRequest{Slot: slot, Reports: reports})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/estimate", "application/json", bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("estimate: status %d", resp.StatusCode)
		}
		var body estimateResponse
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return body
	}

	first := seedsFor(12)
	want := estimateOn(first)
	seedsFor(3)
	hits := seedCacheHits.Value()
	again := seedsFor(12)
	if seedCacheHits.Value() == hits {
		t.Fatal("the second k=12 request missed the cache")
	}
	if fmt.Sprint(again) != fmt.Sprint(first) {
		t.Fatalf("cache hit served %v, first selection %v", again, first)
	}
	got := estimateOn(again)
	differ, worst := 0, 0.0
	for r := range want.Roads {
		if got.Roads[r] != want.Roads[r] {
			differ++
			worst = math.Max(worst, math.Abs(got.Roads[r].SpeedMPS-want.Roads[r].SpeedMPS))
		}
	}
	if differ > 0 {
		t.Errorf("after a cache hit, %d of %d roads answer differently than after the first selection (up to %.3g m/s)",
			differ, len(want.Roads), worst)
	}
}

// TestSeedCacheNoStaleReinsertAfterSwap pins the swap-vs-selection race: a
// /v1/seeds selection is mid-flight when a rebuild swaps the model. The
// waiters must still get the result for the version they asked for, but the
// cache must not resurrect the superseded (k, oldVersion) entry after
// dropStaleSeeds already purged that generation — a stale reinsert wastes a
// FIFO slot and inflates the entries gauge on a key no lookup can hit.
func TestSeedCacheNoStaleReinsertAfterSwap(t *testing.T) {
	_, st := freshStore(t)
	srv, err := newServer(st)
	if err != nil {
		t.Fatal(err)
	}
	m1 := st.View()
	swapped := false
	srv.onSeedSelected = func() {
		// The rebuild lands exactly in the window between the selection
		// finishing and its result being considered for the cache.
		if _, err := st.Rebuild(context.Background()); err != nil {
			t.Errorf("rebuild during selection: %v", err)
		}
		swapped = true
	}
	seeds, err := srv.seedsFor(context.Background(), m1, 3)
	srv.onSeedSelected = nil
	if err != nil {
		t.Fatalf("seedsFor: %v", err)
	}
	if !swapped {
		t.Fatal("test seam never ran; the interleaving was not exercised")
	}
	if len(seeds) != 3 {
		t.Fatalf("got %d seeds, want 3", len(seeds))
	}
	current := st.View().Version()
	if current == m1.Version() {
		t.Fatalf("rebuild did not bump the version from %d", m1.Version())
	}

	srv.mu.Lock()
	defer srv.mu.Unlock()
	if srv.seedVersion != current {
		t.Errorf("server tracks seedVersion %d, want current %d", srv.seedVersion, current)
	}
	for key := range srv.seedCache {
		if key.version != current {
			t.Errorf("stale seed-cache entry %+v reinserted after swap to version %d", key, current)
		}
	}
	if len(srv.seedCacheOrder) != len(srv.seedCache) {
		t.Errorf("cache order holds %d keys for %d entries", len(srv.seedCacheOrder), len(srv.seedCache))
	}
}

// TestSeedCacheSwapRace hammers seedsFor from several goroutines while
// rebuilds swap the model, then asserts the cache holds only entries for the
// final published version. Run under -race this also checks the
// seedVersion/cache bookkeeping is data-race free.
func TestSeedCacheSwapRace(t *testing.T) {
	_, st := freshStore(t)
	srv, err := newServer(st)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			if _, err := st.Rebuild(context.Background()); err != nil {
				t.Errorf("rebuild %d: %v", i, err)
				return
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := 0; i < 2; i++ {
				m := st.View()
				if _, err := srv.seedsFor(context.Background(), m, k); err != nil {
					t.Errorf("seedsFor(k=%d): %v", k, err)
					return
				}
			}
		}(g + 2)
	}
	wg.Wait()

	current := st.View().Version()
	srv.mu.Lock()
	defer srv.mu.Unlock()
	for key := range srv.seedCache {
		if key.version != current {
			t.Errorf("seed cache retains entry %+v after final swap to version %d", key, current)
		}
	}
}
