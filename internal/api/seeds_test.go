package api

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/roadnet"
)

// specializations reads how many seed_specialize stages this process has
// run, off core's stage histogram.
func specializations() uint64 {
	for _, m := range obs.Default().Snapshot()["trendspeed_core_stage_duration_seconds"].Metrics {
		if m.Labels["stage"] == "seed_specialize" && m.Count != nil {
			return *m.Count
		}
	}
	return 0
}

// getSeedsBody answers one /v1/seeds?k= request and returns its raw body.
func getSeedsBody(t *testing.T, base string, k int) []byte {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/seeds?k=%d", base, k))
	if err != nil {
		t.Error(err)
		return nil
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Error(err)
		return nil
	}
	if resp.StatusCode != http.StatusOK {
		t.Errorf("seeds k=%d: status %d: %s", k, resp.StatusCode, body)
		return nil
	}
	return body
}

// TestSeedsRespecializeAfterOtherSet: /v1/seeds serves its set on a view
// specialized to that set. Request k=12, then k=3, whose selection
// re-specializes the view to its own 3 seeds, then k=12 again: that request
// specializes once more, and an estimate on the 12 seeds must answer bit for
// bit as it did right after the first k=12 request.
func TestSeedsRespecializeAfterOtherSet(t *testing.T) {
	ts, d, _ := newLifecycleServer(t)
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
		var body estimateResponse
		if code := postJSON(t, ts.URL+"/v1/estimate", estimateRequest{Slot: slot, Reports: reports}, &body); code != http.StatusOK {
			t.Fatalf("estimate: status %d", code)
		}
		return body
	}

	first := seedsFor(12)
	want := estimateOn(first)
	seedsFor(3)
	before := specializations()
	again := seedsFor(12)
	if got := specializations() - before; got != 1 {
		t.Errorf("k=12 after k=3 ran %d seed_specialize stages, want 1", got)
	}
	if fmt.Sprint(again) != fmt.Sprint(first) {
		t.Fatalf("second k=12 request served %v, first %v", again, first)
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
		t.Errorf("after k=3, %d of %d roads answer differently on the k=12 seeds than after the first selection (up to %.3g m/s)",
			differ, len(want.Roads), worst)
	}
}

// TestSeedsRepeatSkipsSpecialize: repeating the last /v1/seeds request
// selects the same set on a view already specialized to it, so it runs no
// seed_specialize stage and answers the same body.
func TestSeedsRepeatSkipsSpecialize(t *testing.T) {
	ts, _, _ := newLifecycleServer(t)
	first := getSeedsBody(t, ts.URL, 12)
	before := specializations()
	again := getSeedsBody(t, ts.URL, 12)
	if got := specializations() - before; got != 0 {
		t.Errorf("repeating k=12 ran %d seed_specialize stages, want 0", got)
	}
	if !bytes.Equal(first, again) {
		t.Errorf("repeated k=12 answered %s, first %s", again, first)
	}
}

// TestSeedsConcurrentSpecializeOnce: concurrent identical /v1/seeds requests
// specialize the view once between them and answer identical bodies.
func TestSeedsConcurrentSpecializeOnce(t *testing.T) {
	ts, _, _ := newLifecycleServer(t)
	const k = 5
	before := specializations()
	bodies := make([][]byte, 8)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			bodies[i] = getSeedsBody(t, ts.URL, k)
		}(i)
	}
	wg.Wait()
	if got := specializations() - before; got != 1 {
		t.Errorf("%d concurrent k=%d requests ran %d seed_specialize stages, want 1", len(bodies), k, got)
	}
	for i := 1; i < len(bodies); i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("request %d answered %s, request 0 %s", i, bodies[i], bodies[0])
		}
	}
}

// TestSeedsSwapRace serves /v1/seeds from several goroutines while rebuilds
// swap the model. Run under -race this checks that selection,
// specialization and the swap share no unsynchronised state.
func TestSeedsSwapRace(t *testing.T) {
	ts, _, st := newLifecycleServer(t)
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
				if getSeedsBody(t, ts.URL, k) == nil {
					return
				}
			}
		}(g + 2)
	}
	wg.Wait()
}

// TestSeedsAfterSwap: after a rebuild swap, /v1/seeds selects on the new
// version and publishes it specialized to the set it served, so selecting
// that budget again specializes nothing.
func TestSeedsAfterSwap(t *testing.T) {
	ts, d, st := newLifecycleServer(t)
	const k = 4
	m1 := st.View()
	var v1 seedsResponse
	if code := getJSON(t, fmt.Sprintf("%s/v1/seeds?k=%d", ts.URL, k), &v1); code != http.StatusOK {
		t.Fatalf("seeds status %d", code)
	}
	if v1.ModelVersion != m1.Version() {
		t.Errorf("seeds answered on version %d, want %d", v1.ModelVersion, m1.Version())
	}
	if _, err := st.Ingest(core.Observation{Road: roadnet.RoadID(1), Slot: d.Slot(), Speed: 8}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Rebuild(context.Background()); err != nil {
		t.Fatal(err)
	}
	m2 := st.View()
	if m2.Version() == m1.Version() {
		t.Fatal("rebuild did not bump the version")
	}
	var v2 seedsResponse
	if code := getJSON(t, fmt.Sprintf("%s/v1/seeds?k=%d", ts.URL, k), &v2); code != http.StatusOK {
		t.Fatalf("seeds status %d", code)
	}
	if v2.ModelVersion != m2.Version() {
		t.Errorf("seeds after the swap answered on version %d, want %d", v2.ModelVersion, m2.Version())
	}
	before := specializations()
	v, again, err := st.SelectSeeds(context.Background(), k)
	if err != nil {
		t.Fatal(err)
	}
	if got := specializations() - before; got != 0 {
		t.Errorf("selecting k=%d on version %d again ran %d seed_specialize stages, want 0", k, m2.Version(), got)
	}
	if v.Version() != m2.Version() {
		t.Errorf("selecting k=%d again published version %d, want %d", k, v.Version(), m2.Version())
	}
	if fmt.Sprint(again) != fmt.Sprint(v2.Seeds) {
		t.Errorf("version %d selects %v, /v1/seeds served %v", m2.Version(), again, v2.Seeds)
	}
}
