package api

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/roadnet"
)

// The localized-ingest mix TestServedLoadAcrossIncrementalRebuilds drives.
// loadClients clients each send loadRequests requests back to back. Three in
// five are observation batches, all on the first tenth of the road IDs: the
// grid cities number roads spatially, so that slice is one district, and the
// delta stays small enough for incremental rebuilds. The rest are estimates
// of noisy reports on roads drawn from the whole city.
const (
	loadClients       = 4
	loadRequests      = 40
	loadBatch         = 120  // observations per batch
	loadReports       = 40   // reports per estimate
	loadIngestNoise   = 0.10 // log-normal σ of observed speeds
	loadEstimateNoise = 0.15 // log-normal σ of reported speeds
	loadRebuildMinObs = 4 * loadBatch
)

// The bounds the mix is held to.
const (
	// maxEstimateP99 caps the nearest-rank 99th percentile of estimate
	// latency.
	maxEstimateP99 = 3 * time.Second
	// maxShedFrac caps the share of estimates answered 429 (admission
	// control) or 503 (inference deadline).
	maxShedFrac = 0.15
	// minIncrementalSwaps is how many incremental rebuilds must publish
	// while the traffic runs, so estimates are served across model swaps.
	minIncrementalSwaps = 3
)

// loadResult is one request's outcome.
type loadResult struct {
	estimate bool
	status   int // 0 on a transport error
	err      error
	latency  time.Duration
}

// TestServedLoadAcrossIncrementalRebuilds serves the localized-ingest mix
// through a server wired as speedserver wires it, with background rebuilds
// armed, and holds its answers to the serving bounds while incremental
// rebuilds swap models under the estimates. Every batch must be answered
// 202, and no request may fail other than by being shed.
func TestServedLoadAcrossIncrementalRebuilds(t *testing.T) {
	d, st := freshStore(t)
	var incremental, full atomic.Int64
	st.OnSwap(func(_, v *core.View) {
		if v.RebuildMode() == "incremental" {
			incremental.Add(1)
		} else {
			full.Add(1)
		}
	})
	st.Start(core.StoreConfig{RebuildMinObs: loadRebuildMinObs, IncrementalMaxDirtyFrac: 0.25})
	t.Cleanup(st.Close)
	srv, err := NewServerWith(st, Config{
		MaxInflightEstimates: 2 * runtime.GOMAXPROCS(0),
		EstimateTimeout:      10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	n := d.Net.NumRoads()
	hot := max(1, n/10)
	slot, truth := d.Slot(), d.Truth()
	noisy := func(rng *rand.Rand, road int, sigma float64) float64 {
		return truth[road] * math.Exp(sigma*rng.NormFloat64())
	}

	results := make([][]loadResult, loadClients)
	var wg sync.WaitGroup
	for c := range results {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c) + 1))
			for i := 0; i < loadRequests; i++ {
				var path string
				var payload any
				estimate := i%5 >= 3
				if estimate {
					req := estimateRequest{Slot: slot}
					for _, road := range rng.Perm(n)[:loadReports] {
						req.Reports = append(req.Reports, seedReport{
							Road: roadnet.RoadID(road), Speed: noisy(rng, road, loadEstimateNoise)})
					}
					path, payload = "/v1/estimate", req
				} else {
					var req observationsRequest
					for j := 0; j < loadBatch; j++ {
						road := rng.Intn(hot)
						req.Observations = append(req.Observations, observationReport{
							Road: roadnet.RoadID(road), Slot: slot, Speed: noisy(rng, road, loadIngestNoise)})
					}
					path, payload = "/v1/observations", req
				}
				results[c] = append(results[c], timedPost(ts, path, payload, estimate))
			}
		}(c)
	}
	wg.Wait()
	swaps := incremental.Load()

	var estimates, shed int
	var latencies []time.Duration
	for _, rs := range results {
		for _, r := range rs {
			switch {
			case r.err != nil:
				t.Errorf("request failed: %v", r.err)
			case !r.estimate:
				if r.status != http.StatusAccepted {
					t.Errorf("observation batch answered %d, want 202", r.status)
				}
			case r.status == http.StatusOK:
				estimates++
				latencies = append(latencies, r.latency)
			case r.status == http.StatusTooManyRequests || r.status == http.StatusServiceUnavailable:
				estimates++
				shed++
			default:
				estimates++
				t.Errorf("estimate answered %d", r.status)
			}
		}
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	var p99 time.Duration
	if len(latencies) > 0 {
		p99 = latencies[int(math.Ceil(0.99*float64(len(latencies))))-1]
	}
	t.Logf("%d roads: %d estimates (%d shed), p99 %v; %d incremental and %d full swaps during traffic",
		n, estimates, shed, p99, swaps, full.Load())
	if p99 > maxEstimateP99 {
		t.Errorf("estimate p99 %v exceeds %v", p99, maxEstimateP99)
	}
	if frac := float64(shed) / float64(estimates); frac > maxShedFrac {
		t.Errorf("%d of %d estimates shed (%.2f), over %.2f", shed, estimates, frac, maxShedFrac)
	}
	if swaps < minIncrementalSwaps {
		t.Errorf("%d incremental swaps during traffic, want at least %d", swaps, minIncrementalSwaps)
	}
}

// timedPost POSTs payload to ts at path and times the answer, body included.
func timedPost(ts *httptest.Server, path string, payload any, estimate bool) loadResult {
	res := loadResult{estimate: estimate}
	raw, err := json.Marshal(payload)
	if err != nil {
		res.err = err
		return res
	}
	start := time.Now()
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		res.err = err
		return res
	}
	defer resp.Body.Close()
	res.status = resp.StatusCode
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		res.err = err
	}
	res.latency = time.Since(start)
	return res
}
