package api

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/roadnet"
)

// newLifecycleServer builds a server over a private store so rebuilds do
// not disturb the shared fixture.
func newLifecycleServer(t *testing.T) (*httptest.Server, *Server, *dataset.Dataset, *core.Store) {
	t.Helper()
	d, st := freshStore(t)
	srv, err := NewServer(st)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, srv, d, st
}

func postJSON(t *testing.T, url string, payload any, out any) int {
	t.Helper()
	raw, err := json.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestObservationsEndpoint(t *testing.T) {
	ts, _, d, st := newLifecycleServer(t)
	slot := d.Slot()
	req := observationsRequest{Observations: []observationReport{
		{Road: 0, Slot: slot, Speed: 9.5},
		{Road: 1, Slot: slot, Speed: 11.0},
	}}
	var body observationsResponse
	if code := postJSON(t, ts.URL+"/v1/observations", req, &body); code != http.StatusAccepted {
		t.Fatalf("status %d", code)
	}
	if body.Accepted != 2 || body.Buffered != 2 {
		t.Errorf("ack = %+v", body)
	}
	if body.ModelVersion != 1 {
		t.Errorf("model version %d before any rebuild", body.ModelVersion)
	}
	if got := st.BufferedObservations(); got != 2 {
		t.Errorf("store buffered %d", got)
	}
}

func TestObservationsValidation(t *testing.T) {
	ts, _, d, st := newLifecycleServer(t)
	post := func(body string) int {
		resp, err := http.Post(ts.URL+"/v1/observations", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("not json"); code != http.StatusBadRequest {
		t.Errorf("garbage → %d", code)
	}
	if code := post(`{"observations":[]}`); code != http.StatusBadRequest {
		t.Errorf("empty batch → %d", code)
	}
	if code := post(`{"observations":[{"road":0,"slot":0,"speed_mps":10}],"x":1}`); code != http.StatusBadRequest {
		t.Errorf("unknown field → %d", code)
	}
	// A bad observation rejects its whole batch as the caller's fault.
	bad := fmt.Sprintf(`{"observations":[{"road":0,"slot":%d,"speed_mps":10},{"road":0,"slot":0,"speed_mps":-1}]}`, d.Slot())
	if code := post(bad); code != http.StatusBadRequest {
		t.Errorf("negative speed → %d", code)
	}
	if code := post(`{"observations":[{"road":999999,"slot":0,"speed_mps":10}]}`); code != http.StatusBadRequest {
		t.Errorf("out-of-range road → %d", code)
	}
	if got := st.BufferedObservations(); got != 0 {
		t.Errorf("%d observations buffered after rejected batches", got)
	}
}

// TestRebuildBumpsVersionAcrossAPI: ingest via the API, rebuild, and watch
// every surface agree on the new version — /v1/model, /v1/estimate's
// model_version, and /v1/seeds recomputed for the new artifact.
func TestRebuildBumpsVersionAcrossAPI(t *testing.T) {
	ts, srv, d, st := newLifecycleServer(t)
	k := d.Net.NumRoads() / 10

	var seedsV1 seedsResponse
	if code := getJSON(t, fmt.Sprintf("%s/v1/seeds?k=%d", ts.URL, k), &seedsV1); code != http.StatusOK {
		t.Fatalf("seeds status %d", code)
	}
	if seedsV1.ModelVersion != 1 {
		t.Fatalf("initial seeds version %d", seedsV1.ModelVersion)
	}

	slot, truth := d.NextTruth()
	obsReq := observationsRequest{}
	for _, s := range seedsV1.Seeds {
		obsReq.Observations = append(obsReq.Observations,
			observationReport{Road: s, Slot: slot, Speed: truth[s]})
	}
	if code := postJSON(t, ts.URL+"/v1/observations", obsReq, nil); code != http.StatusAccepted {
		t.Fatalf("observations status %d", code)
	}
	if _, err := st.Rebuild(context.Background()); err != nil {
		t.Fatal(err)
	}

	var model modelResponse
	if code := getJSON(t, ts.URL+"/v1/model", &model); code != http.StatusOK {
		t.Fatalf("model status %d", code)
	}
	if model.Version != 2 {
		t.Errorf("model version %d after rebuild, want 2", model.Version)
	}
	if model.BufferedPending != 0 {
		t.Errorf("%d observations still buffered after rebuild", model.BufferedPending)
	}

	// The swap hook dropped the version-1 cache entry; the next request
	// selects fresh on version 2.
	srv.mu.Lock()
	for key := range srv.seedCache {
		if key.version != 2 && key.version != 0 {
			t.Errorf("stale cache entry %+v survived the swap", key)
		}
	}
	stale := len(srv.seedCache)
	srv.mu.Unlock()
	if stale != 0 {
		t.Errorf("cache holds %d entries right after swap, want 0", stale)
	}

	var seedsV2 seedsResponse
	if code := getJSON(t, fmt.Sprintf("%s/v1/seeds?k=%d", ts.URL, k), &seedsV2); code != http.StatusOK {
		t.Fatalf("seeds status %d", code)
	}
	if seedsV2.ModelVersion != 2 {
		t.Errorf("post-rebuild seeds version %d, want 2", seedsV2.ModelVersion)
	}

	var reports []seedReport
	for _, s := range seedsV2.Seeds {
		reports = append(reports, seedReport{Road: s, Speed: truth[s]})
	}
	var est estimateResponse
	if code := postJSON(t, ts.URL+"/v1/estimate", estimateRequest{Slot: slot, Reports: reports}, &est); code != http.StatusOK {
		t.Fatalf("estimate status %d", code)
	}
	if est.ModelVersion != 2 {
		t.Errorf("estimate ran on version %d, want 2", est.ModelVersion)
	}
}

// TestSeedCacheVersioned: the same k is cached separately per model
// version, so a lookup after a rebuild misses and re-selects instead of
// serving the stale set.
func TestSeedCacheVersioned(t *testing.T) {
	_, srv, d, st := newLifecycleServer(t)
	const k = 4
	m1 := st.View()
	if _, err := srv.seedsFor(context.Background(), m1, k); err != nil {
		t.Fatal(err)
	}
	missesBefore := seedCacheMisses.Value()
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
	if _, err := srv.seedsFor(context.Background(), m2, k); err != nil {
		t.Fatal(err)
	}
	if got := seedCacheMisses.Value() - missesBefore; got != 1 {
		t.Errorf("same k on the new version caused %v misses, want exactly 1", got)
	}
}
