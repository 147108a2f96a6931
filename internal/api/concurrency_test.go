package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/roadnet"
)

// TestConcurrentSeedsAndEstimate is the race regression for seed
// specialisation: /v1/seeds trains a seed-conditional model and publishes
// the view specialised to it while /v1/estimate rounds are mid-flight, and
// every round finishes on the view it resolved at entry. Distinct k values
// on purpose: each one selects another set and forces a new view.
func TestConcurrentSeedsAndEstimate(t *testing.T) {
	ts, d := newTestServer(t)
	truth := d.Truth()
	var reports []seedReport
	for r := 0; r < d.Net.NumRoads(); r += 12 {
		reports = append(reports, seedReport{Road: roadnet.RoadID(r), Speed: truth[r]})
	}
	payload, _ := json.Marshal(estimateRequest{Slot: d.Slot(), Reports: reports})

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 3; k <= 8; k++ {
			resp, err := http.Get(fmt.Sprintf("%s/v1/seeds?k=%d", ts.URL, k))
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("seeds k=%d → %d", k, resp.StatusCode)
			}
		}
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				resp, err := http.Post(ts.URL+"/v1/estimate", "application/json", bytes.NewReader(payload))
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("estimate → %d", resp.StatusCode)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestInstrumentRecoversPanic drives a panicking handler through the
// middleware directly: the client gets a 500, the in-flight gauge returns to
// baseline, and the panic and 5xx counters move.
func TestInstrumentRecoversPanic(t *testing.T) {
	srv := &Server{log: obs.NopLogger()}
	h := srv.instrument("/boom", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})
	inFlightBefore := httpInFlight.Value()
	panicsBefore := httpPanics("/boom").Value()
	errClassBefore := httpRequests("/boom", "5xx").Value()

	rw := httptest.NewRecorder()
	h(rw, httptest.NewRequest("GET", "/boom", nil))

	if rw.Code != http.StatusInternalServerError {
		t.Errorf("panicking handler → %d, want 500", rw.Code)
	}
	var e errorBody
	if err := json.Unmarshal(rw.Body.Bytes(), &e); err != nil || !strings.Contains(e.Error, "internal error") {
		t.Errorf("panic body = %q (decode err %v)", rw.Body.String(), err)
	}
	if got := httpInFlight.Value(); got != inFlightBefore {
		t.Errorf("in-flight gauge leaked: %v, want %v", got, inFlightBefore)
	}
	if got := httpPanics("/boom").Value(); got != panicsBefore+1 {
		t.Errorf("panic counter %v → %v, want +1", panicsBefore, got)
	}
	if got := httpRequests("/boom", "5xx").Value(); got != errClassBefore+1 {
		t.Errorf("5xx counter %v → %v, want +1", errClassBefore, got)
	}

	// A panic after headers went out cannot unsend them, but accounting must
	// still record a server error.
	late := srv.instrument("/boom-late", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		panic("after headers")
	})
	lateBefore := httpRequests("/boom-late", "5xx").Value()
	rw = httptest.NewRecorder()
	late(rw, httptest.NewRequest("GET", "/boom-late", nil))
	if got := httpRequests("/boom-late", "5xx").Value(); got != lateBefore+1 {
		t.Errorf("late-panic 5xx counter %v → %v, want +1", lateBefore, got)
	}
	if got := httpInFlight.Value(); got != inFlightBefore {
		t.Errorf("in-flight gauge leaked after late panic: %v, want %v", got, inFlightBefore)
	}
}

// TestEstimateStatus maps error classes to HTTP statuses.
func TestEstimateStatus(t *testing.T) {
	if got := estimateStatus(fmt.Errorf("round: %w", core.ErrInvalidInput)); got != http.StatusBadRequest {
		t.Errorf("invalid input → %d, want 400", got)
	}
	if got := estimateStatus(errors.New("solver exploded")); got != http.StatusInternalServerError {
		t.Errorf("internal failure → %d, want 500", got)
	}
	if got := estimateStatus(fmt.Errorf("round: %w", context.DeadlineExceeded)); got != http.StatusServiceUnavailable {
		t.Errorf("deadline exceeded → %d, want 503", got)
	}
	if got := estimateStatus(fmt.Errorf("round: %w", context.Canceled)); got != statusClientClosedRequest {
		t.Errorf("client cancel → %d, want 499", got)
	}
}

// TestEstimateInvalidSeedSpeedIs400: a non-finite crowd speed is the
// caller's fault and must not surface as a 5xx.
func TestEstimateInvalidSeedSpeedIs400(t *testing.T) {
	ts, _ := newTestServer(t)
	body := `{"slot":0,"reports":[{"road":0,"speed_mps":0}]}`
	resp, err := http.Post(ts.URL+"/v1/estimate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("zero seed speed → %d, want 400", resp.StatusCode)
	}
}
