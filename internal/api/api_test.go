package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/roadnet"
)

var (
	fixtureOnce  sync.Once
	fixtureDS    *dataset.Dataset
	fixtureStore *core.Store
)

// fixtures builds one small trained model store shared by the read-only API
// tests. Tests that ingest or rebuild must use freshStore instead: the
// shared store's version would drift under them.
func fixtures(t testing.TB) (*dataset.Dataset, *core.Store) {
	t.Helper()
	fixtureOnce.Do(func() {
		cfg := dataset.DefaultConfig()
		cfg.Net.BlocksX, cfg.Net.BlocksY = 6, 5
		cfg.HistoryDays = 5
		d, err := dataset.Build(cfg)
		if err != nil {
			panic(err)
		}
		st, err := core.NewStore(d.Net, d.DB, core.DefaultOptions())
		if err != nil {
			panic(err)
		}
		fixtureDS, fixtureStore = d, st
	})
	return fixtureDS, fixtureStore
}

// freshStore builds a private store for tests that mutate model state
// (ingest, rebuild) so they cannot interfere with the shared fixture.
func freshStore(t testing.TB) (*dataset.Dataset, *core.Store) {
	t.Helper()
	cfg := dataset.DefaultConfig()
	cfg.Net.BlocksX, cfg.Net.BlocksY = 5, 4
	cfg.HistoryDays = 4
	d, err := dataset.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := core.NewStore(d.Net, d.DB, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return d, st
}

// newServer returns a Server for a model store with metrics exposed.
func newServer(store *core.Store) (*Server, error) {
	return NewServerWith(store, Config{Metrics: true})
}

func newTestServer(t *testing.T) (*httptest.Server, *dataset.Dataset) {
	t.Helper()
	d, st := fixtures(t)
	srv, err := newServer(st)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, d
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
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

func TestNewServerValidation(t *testing.T) {
	if _, err := newServer(nil); err == nil {
		t.Error("nil store accepted")
	}
}

func TestHealth(t *testing.T) {
	ts, _ := newTestServer(t)
	var body map[string]string
	if code := getJSON(t, ts.URL+"/health", &body); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if body["status"] != "ok" {
		t.Errorf("body = %v", body)
	}
}

func TestInfo(t *testing.T) {
	ts, d := newTestServer(t)
	var body infoResponse
	if code := getJSON(t, ts.URL+"/v1/info", &body); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if body.Roads != d.Net.NumRoads() || body.Junctions != d.Net.NumNodes() {
		t.Errorf("info = %+v", body)
	}
	if body.SlotMinutes != 10 {
		t.Errorf("slot minutes = %v", body.SlotMinutes)
	}
	if body.ModelVersion < 1 {
		t.Errorf("model version = %d", body.ModelVersion)
	}
}

// TestInfoAndModelWireShape pins the JSON shape of /v1/info and /v1/model to
// the fields README documents: each body must decode into exactly those
// fields, with no unknown field and none missing.
func TestInfoAndModelWireShape(t *testing.T) {
	ts, _ := newTestServer(t)
	var info struct {
		Roads          int     `json:"roads"`
		Junctions      int     `json:"junctions"`
		LengthKM       float64 `json:"length_km"`
		CorrEdges      int     `json:"corr_edges"`
		CorrMeanDegree float64 `json:"corr_mean_degree"`
		SlotMinutes    float64 `json:"slot_minutes"`
		ModelVersion   uint64  `json:"model_version"`
	}
	var model struct {
		Version          uint64  `json:"version"`
		BuiltAt          string  `json:"built_at"`
		BuildSeconds     float64 `json:"build_seconds"`
		Observations     int     `json:"observations"`
		BufferedPending  int     `json:"buffered_observations"`
		StalenessSeconds float64 `json:"staleness_seconds"`
		RebuildMode      string  `json:"rebuild_mode"`
	}
	for _, tc := range []struct {
		path   string
		into   any
		fields int
	}{
		{"/v1/info", &info, 7},
		{"/v1/model", &model, 7},
	} {
		resp, err := http.Get(ts.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(tc.into); err != nil {
			t.Errorf("%s: %v in %s", tc.path, err, raw)
		}
		var keys map[string]json.RawMessage
		if err := json.Unmarshal(raw, &keys); err != nil {
			t.Fatal(err)
		}
		if len(keys) != tc.fields {
			t.Errorf("%s has %d fields, want the %d documented: %s", tc.path, len(keys), tc.fields, raw)
		}
	}
}

func TestModelEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	var body modelResponse
	if code := getJSON(t, ts.URL+"/v1/model", &body); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if body.Version < 1 {
		t.Errorf("version = %d", body.Version)
	}
	if body.Observations <= 0 {
		t.Errorf("observations = %d", body.Observations)
	}
	if body.BuiltAt == "" || body.StalenessSeconds < 0 {
		t.Errorf("build metadata = %+v", body)
	}
}

func TestSeeds(t *testing.T) {
	ts, d := newTestServer(t)
	k := d.Net.NumRoads() / 10
	var body seedsResponse
	if code := getJSON(t, fmt.Sprintf("%s/v1/seeds?k=%d", ts.URL, k), &body); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(body.Seeds) != k || body.Benefit <= 0 {
		t.Errorf("seeds = %d, benefit = %v", len(body.Seeds), body.Benefit)
	}
	if body.ModelVersion < 1 {
		t.Errorf("seeds model version = %d", body.ModelVersion)
	}
	// Missing and invalid k are rejected.
	if code := getJSON(t, ts.URL+"/v1/seeds", nil); code != http.StatusBadRequest {
		t.Errorf("missing k → %d", code)
	}
	if code := getJSON(t, ts.URL+"/v1/seeds?k=abc", nil); code != http.StatusBadRequest {
		t.Errorf("bad k → %d", code)
	}
	if code := getJSON(t, ts.URL+"/v1/seeds?k=999999", nil); code != http.StatusBadRequest {
		t.Errorf("huge k → %d", code)
	}
	// A second call selects the identical set.
	var again seedsResponse
	getJSON(t, fmt.Sprintf("%s/v1/seeds?k=%d", ts.URL, k), &again)
	for i := range body.Seeds {
		if body.Seeds[i] != again.Seeds[i] {
			t.Fatal("a second request selected a different set")
		}
	}
}

func TestRoad(t *testing.T) {
	ts, d := newTestServer(t)
	var body roadResponse
	if code := getJSON(t, ts.URL+"/v1/roads/0?slot=0", &body); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if body.ID != 0 || body.LengthM <= 0 || body.Class == "" {
		t.Errorf("road = %+v", body)
	}
	if body.HistoricalMean == nil || *body.HistoricalMean <= 0 {
		t.Error("historical mean missing")
	}
	if body.TrendPriorUp == nil || *body.TrendPriorUp <= 0 || *body.TrendPriorUp >= 1 {
		t.Error("trend prior missing or out of range")
	}
	// Unknown and malformed ids.
	if code := getJSON(t, fmt.Sprintf("%s/v1/roads/%d", ts.URL, d.Net.NumRoads()+5), nil); code != http.StatusNotFound {
		t.Errorf("out-of-range id → %d", code)
	}
	if code := getJSON(t, ts.URL+"/v1/roads/xyz", nil); code != http.StatusNotFound {
		t.Errorf("garbage id → %d", code)
	}
	if code := getJSON(t, ts.URL+"/v1/roads/0?slot=zz", nil); code != http.StatusBadRequest {
		t.Errorf("bad slot → %d", code)
	}
}

func TestEstimate(t *testing.T) {
	ts, d := newTestServer(t)
	slot := d.Slot()
	truth := d.Truth()
	var reports []seedReport
	for r := 0; r < d.Net.NumRoads(); r += 12 {
		reports = append(reports, seedReport{Road: roadnet.RoadID(r), Speed: truth[r]})
	}
	payload, _ := json.Marshal(estimateRequest{Slot: slot, Reports: reports})
	resp, err := http.Post(ts.URL+"/v1/estimate", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var body estimateResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Roads) != d.Net.NumRoads() {
		t.Fatalf("got %d road estimates", len(body.Roads))
	}
	if body.Seeded != len(reports) {
		t.Errorf("seeded = %d", body.Seeded)
	}
	if body.ModelVersion < 1 {
		t.Errorf("estimate model version = %d", body.ModelVersion)
	}
	for _, re := range body.Roads {
		if re.SpeedMPS < 0 || re.SpeedMPS > 45 || re.PUp < 0 || re.PUp > 1 {
			t.Fatalf("implausible estimate %+v", re)
		}
	}
}

func TestEstimateValidation(t *testing.T) {
	ts, _ := newTestServer(t)
	post := func(body string) int {
		resp, err := http.Post(ts.URL+"/v1/estimate", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("not json"); code != http.StatusBadRequest {
		t.Errorf("garbage → %d", code)
	}
	if code := post(`{"slot":0,"reports":[]}`); code != http.StatusBadRequest {
		t.Errorf("empty reports → %d", code)
	}
	if code := post(`{"slot":0,"reports":[{"road":99999,"speed_mps":10}]}`); code != http.StatusBadRequest {
		t.Errorf("out-of-range road → %d", code)
	}
	if code := post(`{"slot":0,"reports":[{"road":0,"speed_mps":-5}]}`); code != http.StatusBadRequest {
		t.Errorf("negative speed → %d", code)
	}
	if code := post(`{"slot":0,"unknown":1,"reports":[{"road":0,"speed_mps":10}]}`); code != http.StatusBadRequest {
		t.Errorf("unknown field → %d", code)
	}
}

func TestMethodRouting(t *testing.T) {
	ts, _ := newTestServer(t)
	// POST to a GET route 405s under Go 1.22 pattern routing.
	resp, err := http.Post(ts.URL+"/v1/info", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/info → %d", resp.StatusCode)
	}
	// Unknown paths 404.
	if code := getJSON(t, ts.URL+"/nope", nil); code != http.StatusNotFound {
		t.Errorf("unknown path → %d", code)
	}
}

func TestConcurrentEstimates(t *testing.T) {
	ts, d := newTestServer(t)
	slot := d.Slot()
	truth := d.Truth()
	var reports []seedReport
	for r := 0; r < d.Net.NumRoads(); r += 15 {
		reports = append(reports, seedReport{Road: roadnet.RoadID(r), Speed: truth[r]})
	}
	payload, _ := json.Marshal(estimateRequest{Slot: slot, Reports: reports})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/estimate", "application/json", bytes.NewReader(payload))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestMapEndpoint(t *testing.T) {
	ts, d := newTestServer(t)
	truth := d.Truth()
	var reports []seedReport
	for r := 0; r < d.Net.NumRoads(); r += 10 {
		reports = append(reports, seedReport{Road: roadnet.RoadID(r), Speed: truth[r]})
	}
	payload, _ := json.Marshal(estimateRequest{Slot: d.Slot(), Reports: reports})
	resp, err := http.Post(ts.URL+"/v1/map?width=40", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	if !strings.Contains(out, "legend:") {
		t.Error("map output missing legend")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) < 5 {
		t.Fatalf("map has only %d lines", len(lines))
	}
	if got := len([]rune(lines[0])); got != 40 {
		t.Errorf("map width %d, want 40", got)
	}
	// Bad width and empty reports are rejected.
	resp, err = http.Post(ts.URL+"/v1/map?width=2", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("width=2 → %d", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/map", "application/json", bytes.NewBufferString(`{"slot":0,"reports":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty reports → %d", resp.StatusCode)
	}
}
