package api

import (
	"context"
	"sync"
	"testing"
)

// TestSeedCacheNoStaleReinsertAfterSwap pins the swap-vs-selection race: a
// /v1/seeds selection is mid-flight when a rebuild swaps the model. The
// waiters must still get the result for the version they asked for, but the
// cache must not resurrect the superseded (k, oldVersion) entry after
// dropStaleSeeds already purged that generation — a stale reinsert wastes a
// FIFO slot and inflates the entries gauge on a key no lookup can hit.
func TestSeedCacheNoStaleReinsertAfterSwap(t *testing.T) {
	_, st := freshStore(t)
	srv, err := NewServer(st)
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
	srv, err := NewServer(st)
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
