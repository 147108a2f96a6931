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
func newLifecycleServer(t *testing.T) (*httptest.Server, *dataset.Dataset, *core.Store) {
	t.Helper()
	d, st := freshStore(t)
	srv, err := newServer(st)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, d, st
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
	ts, d, st := newLifecycleServer(t)
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
	ts, d, st := newLifecycleServer(t)
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
	// A speed past four times its class's free-flow speed is no report.
	for r := 0; r < d.Net.NumRoads(); r++ {
		if d.Net.Road(roadnet.RoadID(r)).Class == roadnet.Local {
			if code := post(fmt.Sprintf(`{"observations":[{"road":%d,"slot":%d,"speed_mps":1e9}]}`, r, d.Slot())); code != http.StatusBadRequest {
				t.Errorf("1e9 m/s on local road %d → %d", r, code)
			}
			break
		}
	}
	if got := st.BufferedObservations(); got != 0 {
		t.Errorf("%d observations buffered after rejected batches", got)
	}
}

// TestObservationsBufferFull: once the store's ingest buffer holds as many
// observations as the published view's history has samples, a batch
// answers 429 with Retry-After and buffers nothing: no rebuild is armed, so
// the buffer would otherwise grow with every POST.
func TestObservationsBufferFull(t *testing.T) {
	ts, d, st := newLifecycleServer(t)
	limit := st.View().ObservationCount()
	fill := make([]core.Observation, limit)
	for i := range fill {
		fill[i] = core.Observation{Road: roadnet.RoadID(i % d.Net.NumRoads()), Slot: d.Slot(), Speed: 9.5}
	}
	if _, err := st.Ingest(fill...); err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"observations":[{"road":0,"slot":%d,"speed_mps":9.5}]}`, d.Slot())
	resp, err := http.Post(ts.URL+"/v1/observations", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e errorBody
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") != "1" {
		t.Errorf("batch past a full buffer → %d, Retry-After %q (%q); want 429 with Retry-After 1",
			resp.StatusCode, resp.Header.Get("Retry-After"), e.Error)
	}
	if got := st.BufferedObservations(); got != limit {
		t.Errorf("store buffered %d observations, want the limit %d", got, limit)
	}
}

// TestRebuildBumpsVersionAcrossAPI: ingest via the API, rebuild, and watch
// every surface agree on the new version — /v1/model, /v1/estimate's
// model_version, and /v1/seeds recomputed for the new artifact.
func TestRebuildBumpsVersionAcrossAPI(t *testing.T) {
	ts, d, st := newLifecycleServer(t)
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
