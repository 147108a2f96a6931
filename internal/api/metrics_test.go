package api

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/roadnet"
)

// TestMetricsReflectEstimate asserts the full middleware loop: serving a
// POST /v1/estimate moves the route counter and latency histogram, and
// GET /metrics renders them (plus the BP and core stage families the round
// exercised) in Prometheus text exposition format.
func TestMetricsReflectEstimate(t *testing.T) {
	ts, d := newTestServer(t)
	truth := d.Truth()
	var reports []seedReport
	for r := 0; r < d.Net.NumRoads(); r += 12 {
		reports = append(reports, seedReport{Road: roadnet.RoadID(r), Speed: truth[r]})
	}
	payload, _ := json.Marshal(estimateRequest{Slot: d.Slot(), Reports: reports})

	// The registry is process-global and monotonic, so assert deltas.
	reqBefore := httpRequests("/v1/estimate", "2xx").Value()
	latBefore := httpLatency("/v1/estimate").Count()
	bpBefore := obs.Default().Histogram("trendspeed_bp_iterations", "", nil).Count()

	resp, err := http.Post(ts.URL+"/v1/estimate", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	// The middleware updates the metrics in a deferred block after the
	// handler body; a large response is already streaming by then, so only
	// reading it to EOF orders the assertions after the update.
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("estimate status %d", resp.StatusCode)
	}

	if got := httpRequests("/v1/estimate", "2xx").Value(); got != reqBefore+1 {
		t.Errorf("request counter %v → %v, want +1", reqBefore, got)
	}
	if got := httpLatency("/v1/estimate").Count(); got != latBefore+1 {
		t.Errorf("latency histogram count %v → %v, want +1", latBefore, got)
	}
	// The round ran loopy BP at least once (pre-pass + trend inference).
	if got := obs.Default().Histogram("trendspeed_bp_iterations", "", nil).Count(); got <= bpBefore {
		t.Errorf("bp iterations count %v → %v, want increase", bpBefore, got)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("/metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		`trendspeed_http_requests_total{class="2xx",route="/v1/estimate"}`,
		"trendspeed_http_in_flight",
		"# TYPE trendspeed_bp_iterations histogram",
		"trendspeed_bp_iterations_count",
		`trendspeed_core_stage_duration_seconds_count{stage="corr_build"}`,
		`trendspeed_core_estimate_duration_hdr_seconds_count{phase="trend"}`,
		`trendspeed_core_estimate_duration_hdr_seconds_count{phase="speed"}`,
		"trendspeed_core_estimate_rounds_total",
		"trendspeed_seedsel_reevaluations_total",
		// HDR families render as Prometheus summaries with tail quantiles.
		"# TYPE trendspeed_http_request_duration_hdr_seconds summary",
		`trendspeed_http_request_duration_hdr_seconds{route="/v1/estimate",quantile="0.999"}`,
		`trendspeed_http_request_duration_hdr_seconds_count{route="/v1/estimate"}`,
		"# TYPE trendspeed_core_estimate_duration_hdr_seconds summary",
		`trendspeed_core_estimate_duration_hdr_seconds{phase="total",quantile="0.99"}`,
		// Build metadata gauge registered by NewServerWith.
		"# TYPE trendspeed_build_info gauge",
		`trendspeed_build_info{go_version="go`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if !strings.Contains(text, `gomaxprocs="`) || !strings.Contains(text, `module_version="`) {
		t.Errorf("build info gauge missing gomaxprocs/module_version labels")
	}
}

// TestEstimateRejectsDuplicateRoads: duplicate road IDs in a crowd batch
// must 400 instead of silently collapsing into a smaller seed set.
func TestEstimateRejectsDuplicateRoads(t *testing.T) {
	ts, _ := newTestServer(t)
	before := httpRequests("/v1/estimate", "4xx").Value()
	body := `{"slot":0,"reports":[{"road":0,"speed_mps":10},{"road":1,"speed_mps":9},{"road":0,"speed_mps":8}]}`
	resp, err := http.Post(ts.URL+"/v1/estimate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("duplicate roads → %d, want 400", resp.StatusCode)
	}
	var e errorBody
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.Error, "duplicate") || !strings.Contains(e.Error, "road 0") {
		t.Errorf("error = %q", e.Error)
	}
	// The middleware classed it as a 4xx.
	if got := httpRequests("/v1/estimate", "4xx").Value(); got != before+1 {
		t.Errorf("4xx counter %v → %v, want +1", before, got)
	}
}

// TestSeedCacheBounded drives seedsFor past the cap and checks FIFO
// eviction keeps the cache at seedCacheMax entries.
func TestSeedCacheBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("runs seed selection seedCacheMax+2 times")
	}
	_, st := fixtures(t)
	srv, err := NewServer(st)
	if err != nil {
		t.Fatal(err)
	}
	m := st.View()
	for k := 1; k <= seedCacheMax+2; k++ {
		if _, err := srv.seedsFor(context.Background(), m, k); err != nil {
			t.Fatalf("seedsFor(%d): %v", k, err)
		}
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if len(srv.seedCache) != seedCacheMax || len(srv.seedCacheOrder) != seedCacheMax {
		t.Fatalf("cache holds %d entries (order %d), want %d",
			len(srv.seedCache), len(srv.seedCacheOrder), seedCacheMax)
	}
	// The two oldest budgets were evicted, the newest survive.
	v := m.Version()
	for _, evicted := range []int{1, 2} {
		if _, ok := srv.seedCache[seedKey{k: evicted, version: v}]; ok {
			t.Errorf("k=%d should have been evicted", evicted)
		}
	}
	for _, kept := range []int{3, seedCacheMax + 2} {
		if _, ok := srv.seedCache[seedKey{k: kept, version: v}]; !ok {
			t.Errorf("k=%d should still be cached", kept)
		}
	}
}

func TestMetricsDisabled(t *testing.T) {
	_, st := fixtures(t)
	srv, err := NewServerWith(st, Config{})
	if err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest("GET", "/metrics", nil)
	rw := newRecorder()
	srv.ServeHTTP(rw, req)
	if rw.status != http.StatusNotFound {
		t.Errorf("/metrics with Metrics=false → %d, want 404", rw.status)
	}
}

// recorder is a minimal ResponseWriter for in-process handler tests.
type recorder struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func newRecorder() *recorder { return &recorder{header: http.Header{}} }

func (r *recorder) Header() http.Header { return r.header }

func (r *recorder) WriteHeader(code int) { r.status = code }

func (r *recorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.body.Write(b)
}

func TestDebugEndpoints(t *testing.T) {
	_, st := fixtures(t)
	srv, err := NewServerWith(st, Config{Metrics: true, Debug: true})
	if err != nil {
		t.Fatal(err)
	}
	get := func(path string) *recorder {
		t.Helper()
		req, _ := http.NewRequest("GET", path, nil)
		rw := newRecorder()
		srv.ServeHTTP(rw, req)
		return rw
	}
	if rw := get("/debug/vars"); rw.status != http.StatusOK || !strings.Contains(rw.body.String(), "memstats") {
		t.Errorf("/debug/vars → %d", rw.status)
	}
	if rw := get("/debug/pprof/"); rw.status != http.StatusOK {
		t.Errorf("/debug/pprof/ → %d", rw.status)
	}
	rw := get("/debug/trace")
	if rw.status != http.StatusOK {
		t.Fatalf("/debug/trace → %d", rw.status)
	}
	var doc struct {
		TotalSpans uint64 `json:"total_spans"`
		Spans      []struct {
			Name string `json:"name"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(rw.body.Bytes(), &doc); err != nil {
		t.Fatalf("trace dump not JSON: %v", err)
	}
	// The fixture estimator was built through core.New, so build-stage spans
	// are in the ring.
	if doc.TotalSpans == 0 {
		t.Error("trace dump has no spans")
	}

	// The standalone DebugMux serves the same surface for -debug-addr.
	dbg := DebugMux()
	req, _ := http.NewRequest("GET", "/metrics", nil)
	drw := newRecorder()
	dbg.ServeHTTP(drw, req)
	if drw.status != http.StatusOK || !strings.Contains(drw.body.String(), "trendspeed_") {
		t.Errorf("DebugMux /metrics → %d", drw.status)
	}
}

// TestInFlightGauge asserts the gauge returns to its baseline once requests
// finish (Inc/Dec pairing in the middleware).
func TestInFlightGauge(t *testing.T) {
	ts, _ := newTestServer(t)
	base := httpInFlight.Value()
	for i := 0; i < 3; i++ {
		if code := getJSON(t, fmt.Sprintf("%s/health", ts.URL), nil); code != http.StatusOK {
			t.Fatalf("health → %d", code)
		}
	}
	if got := httpInFlight.Value(); got != base {
		t.Errorf("in-flight gauge = %v after idle, want %v", got, base)
	}
}
