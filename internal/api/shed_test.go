package api

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/mrf"
	"repro/internal/obs"
)

// gateEngine parks every Infer call until release is closed (then it
// delegates to PriorOnly so the round completes normally) or the round's
// context dies. entered receives one token per call so tests can wait for a
// request to be provably inside inference before acting.
type gateEngine struct {
	entered chan struct{}
	release chan struct{}
}

func newGateEngine() gateEngine {
	return gateEngine{entered: make(chan struct{}, 64), release: make(chan struct{})}
}

func (e gateEngine) Name() string { return "gate-test" }

func (e gateEngine) Infer(ctx context.Context, m *mrf.Model, ev []mrf.Evidence, _ *mrf.Beliefs) (*mrf.Result, error) {
	select {
	case e.entered <- struct{}{}:
	default:
	}
	select {
	case <-e.release:
		return mrf.PriorOnly{}.Infer(ctx, m, ev, nil)
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// newGatedServer builds a private store whose trend engine is eng and serves
// it with the given config, waiting admitWait for an admission slot.
func newGatedServer(t *testing.T, cfg Config, admitWait time.Duration, eng mrf.Engine) (*httptest.Server, *dataset.Dataset) {
	t.Helper()
	dcfg := dataset.DefaultConfig()
	dcfg.Net.BlocksX, dcfg.Net.BlocksY = 5, 4
	dcfg.HistoryDays = 4
	d, err := dataset.Build(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	if eng != nil {
		opts.Engine = eng
	}
	st, err := core.NewStore(d.Net, d.DB, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServerWith(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.admitWait = admitWait
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, d
}

// estBody is a minimal valid estimate request for d's current slot.
func estBody(d *dataset.Dataset) string {
	return fmt.Sprintf(`{"slot":%d,"reports":[{"road":0,"speed_mps":9.5}]}`, d.Slot())
}

func postEstimate(t *testing.T, ts *httptest.Server, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/estimate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestEstimateShed429 fills the single admission slot with a request parked
// in inference, asserts the next request is shed with 429 + Retry-After, then
// releases the gate and asserts the parked request still completes with 200.
func TestEstimateShed429(t *testing.T) {
	eng := newGateEngine()
	ts, d := newGatedServer(t, Config{MaxInflightEstimates: 1}, 20*time.Millisecond, eng)

	shed0 := apiShed("/v1/estimate").Value()
	first := make(chan int, 1)
	go func() {
		resp := postEstimate(t, ts, estBody(d))
		resp.Body.Close()
		first <- resp.StatusCode
	}()
	select {
	case <-eng.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("first request never reached the engine")
	}

	resp := postEstimate(t, ts, estBody(d))
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 response missing Retry-After header")
	}
	if got := apiShed("/v1/estimate").Value(); got != shed0+1 {
		t.Errorf("shed counter = %v, want %v", got, shed0+1)
	}

	close(eng.release)
	select {
	case code := <-first:
		if code != http.StatusOK {
			t.Fatalf("parked request status = %d, want 200", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("parked request never completed after release")
	}
}

// TestEstimateTimeout503 serves with a short per-request deadline and an
// engine that never finishes: the round must be cut off with 503 and invite a
// retry.
func TestEstimateTimeout503(t *testing.T) {
	eng := newGateEngine()
	ts, d := newGatedServer(t, Config{EstimateTimeout: 50 * time.Millisecond}, defaultAdmitWait, eng)
	resp := postEstimate(t, ts, estBody(d))
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 response missing Retry-After header")
	}
}

// TestEstimateClientCancelUnwinds aborts the HTTP request while inference is
// parked and asserts the server unwinds promptly without leaking a span or an
// admission slot: a follow-up request must be admitted and succeed.
func TestEstimateClientCancelUnwinds(t *testing.T) {
	eng := newGateEngine()
	ts, d := newGatedServer(t, Config{MaxInflightEstimates: 1}, 20*time.Millisecond, eng)

	s0, e0 := obs.DefaultTracer().Counts()
	open0 := s0 - e0

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/estimate",
		bytes.NewBufferString(estBody(d)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	errCh := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errCh <- err
	}()
	select {
	case <-eng.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("request never reached the engine")
	}
	start := time.Now()
	cancel()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("aborted request reported success")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client never observed the abort")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("abort took %v to surface", elapsed)
	}

	// The admission slot must have been released: with capacity 1, a fresh
	// request only succeeds if the cancelled round gave its token back.
	close(eng.release)
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp := postEstimate(t, ts, estBody(d))
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follow-up request still rejected (%d): admission slot leaked", resp.StatusCode)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Span accounting must drain back to the pre-test baseline.
	spanDeadline := time.Now().Add(5 * time.Second)
	for {
		s1, e1 := obs.DefaultTracer().Counts()
		if s1-e1 == open0 {
			break
		}
		if time.Now().After(spanDeadline) {
			t.Fatalf("span leak: %d spans open, want %d", s1-e1, open0)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestEstimateBurstShedsCleanly is the acceptance scenario: 16 concurrent
// estimates against 2 admission slots must each end in 200 or 429 — never a
// 5xx, never a hang — with at least one of each outcome class possible but
// only 200 guaranteed.
func TestEstimateBurstShedsCleanly(t *testing.T) {
	ts, d := newGatedServer(t, Config{MaxInflightEstimates: 2}, time.Millisecond, nil)
	body := estBody(d)

	const burst = 16
	codes := make([]int, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp := postEstimate(t, ts, body)
			resp.Body.Close()
			codes[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()

	var ok, shed int
	for i, code := range codes {
		switch code {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
		default:
			t.Errorf("request %d: status %d, want 200 or 429", i, code)
		}
	}
	if ok == 0 {
		t.Error("no request succeeded under burst")
	}
	t.Logf("burst of %d: %d served, %d shed", burst, ok, shed)
}

// TestEstimateBodyLimit413 posts a >1 MiB estimate body and expects 413, not
// 400: the size rejection must be distinguishable from malformed JSON.
func TestEstimateBodyLimit413(t *testing.T) {
	ts, _ := newTestServer(t)
	var buf bytes.Buffer
	buf.WriteString(`{"slot":0,"reports":[`)
	for buf.Len() < maxEstimateBody+1024 {
		buf.WriteString(`{"road":0,"speed_mps":9.5},`)
	}
	buf.WriteString(`{"road":0,"speed_mps":9.5}]}`)
	resp, err := http.Post(ts.URL+"/v1/estimate", "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body → %d, want 413", resp.StatusCode)
	}
}

// TestEstimateTrailingGarbage400 asserts bytes after the JSON document are
// rejected, while trailing whitespace stays legal.
func TestEstimateTrailingGarbage400(t *testing.T) {
	ts, d := newTestServer(t)
	garbage := estBody(d) + `{"slot":1}`
	resp := postEstimate(t, ts, garbage)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("trailing garbage → %d, want 400", resp.StatusCode)
	}
	clean := estBody(d) + "\n  \n"
	resp = postEstimate(t, ts, clean)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trailing whitespace → %d, want 200", resp.StatusCode)
	}
}
