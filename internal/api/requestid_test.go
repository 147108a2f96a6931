package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
)

// logLine is the subset of a structured request record the tests read.
type logLine struct {
	Msg       string  `json:"msg"`
	Level     string  `json:"level"`
	RequestID string  `json:"request_id"`
	Route     string  `json:"route"`
	Status    int     `json:"status"`
	Duration  float64 `json:"duration_seconds"`
}

func decodeLogLines(t *testing.T, buf *bytes.Buffer) []logLine {
	t.Helper()
	var out []logLine
	for _, raw := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if raw == "" {
			continue
		}
		var l logLine
		if err := json.Unmarshal([]byte(raw), &l); err != nil {
			t.Fatalf("log line is not JSON: %v (%q)", err, raw)
		}
		out = append(out, l)
	}
	return out
}

// TestRequestIDCorrelation drives one estimate through a server with logging
// on, then checks the same request ID shows up in all three places an
// operator looks: the X-Request-Id response header, the structured log line,
// and the span dump at DebugMux's /debug/trace.
func TestRequestIDCorrelation(t *testing.T) {
	_, st := fixtures(t)
	var logBuf bytes.Buffer
	srv, err := NewServerWith(st, Config{
		Metrics: true,
		Logger:  obs.NewLogger(&logBuf, slog.LevelDebug),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const rid = "test-correlation-000042"
	body := `{"slot": 30, "reports": [{"road": 0, "speed_mps": 9.5}, {"road": 3, "speed_mps": 11.0}]}`
	req, err := http.NewRequest("POST", ts.URL+"/v1/estimate", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", rid)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// The middleware logs the request in a deferred block after the handler
	// body; a large response is already streaming by then, so only reading
	// it to EOF orders the log assertions after the write.
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("estimate status = %d", resp.StatusCode)
	}

	// 1. Response header echoes the client's ID.
	if got := resp.Header.Get("X-Request-Id"); got != rid {
		t.Errorf("X-Request-Id header = %q, want %q", got, rid)
	}

	// 2. The structured request log carries the same ID.
	var reqLine *logLine
	for _, l := range decodeLogLines(t, &logBuf) {
		if l.Msg == "request" && l.Route == "/v1/estimate" && l.RequestID == rid {
			cp := l
			reqLine = &cp
		}
	}
	if reqLine == nil {
		t.Fatalf("no request log line with request_id %q in:\n%s", rid, logBuf.String())
	}
	if reqLine.Status != http.StatusOK || reqLine.Duration <= 0 {
		t.Errorf("request line = %+v, want status 200 and positive duration", *reqLine)
	}

	// 3. The span dump correlates the inference spans to the same ID.
	dbg := httptest.NewServer(DebugMux())
	defer dbg.Close()
	traceResp, err := http.Get(dbg.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer traceResp.Body.Close()
	var trace struct {
		Spans []obs.SpanRecord `json:"spans"`
	}
	if err := json.NewDecoder(traceResp.Body).Decode(&trace); err != nil {
		t.Fatalf("decoding /debug/trace: %v", err)
	}
	var matched []string
	for _, sp := range trace.Spans {
		if sp.RequestID == rid {
			matched = append(matched, sp.Name)
		}
	}
	if len(matched) == 0 {
		t.Fatalf("no spans carry request_id %q", rid)
	}
	foundRound := false
	for _, name := range matched {
		if strings.Contains(name, "core.estimate") {
			foundRound = true
		}
	}
	if !foundRound {
		t.Errorf("spans for %q = %v, want a core.estimate round span among them", rid, matched)
	}
}

// TestRequestIDGenerated covers the no-header and bad-header paths: the
// server must mint a fresh ID rather than echoing junk into logs and headers.
func TestRequestIDGenerated(t *testing.T) {
	ts, _ := newTestServer(t)

	resp, err := http.Get(ts.URL + "/health")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	got := resp.Header.Get("X-Request-Id")
	if got == "" {
		t.Fatalf("no X-Request-Id header on response without client ID")
	}
	if !validRequestID(got) || len(got) != 16 {
		t.Errorf("generated ID %q is not 16 hex chars", got)
	}

	for _, bad := range []string{
		"has space",
		"semi;colon",
		strings.Repeat("x", 65),
		"newline\nheader-injection",
	} {
		req, err := http.NewRequest("GET", ts.URL+"/health", nil)
		if err != nil {
			t.Fatal(err)
		}
		// Set directly into the map to bypass net/http's own validation of
		// values like the newline case.
		req.Header["X-Request-Id"] = []string{bad}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			continue // transport refused to send it at all: equally safe
		}
		resp.Body.Close()
		if got := resp.Header.Get("X-Request-Id"); got == bad {
			t.Errorf("server echoed invalid request ID %q", bad)
		}
	}
}

// TestShedLogCarriesRequestID forces a shed 429 and checks the warn-level
// records carry the client's request ID, so an operator can chase one shed
// request from a load client's record into the server's logs.
func TestShedLogCarriesRequestID(t *testing.T) {
	_, st := freshStore(t)
	var logBuf bytes.Buffer
	srv, err := NewServerWith(st, Config{
		Logger:               obs.NewLogger(&logBuf, slog.LevelDebug),
		MaxInflightEstimates: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.admitWait = 1 // nanosecond: whoever loses the race sheds instantly
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Hold the single admission slot so every request sheds deterministically.
	srv.estSem <- struct{}{}
	defer func() { <-srv.estSem }()

	const parallel = 8
	body := `{"slot": 30, "reports": [{"road": 0, "speed_mps": 9.0}]}`
	errs := make(chan error, parallel)
	shed := make(chan string, parallel)
	for i := 0; i < parallel; i++ {
		go func(i int) {
			req, err := http.NewRequest("POST", ts.URL+"/v1/estimate", strings.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			req.Header.Set("X-Request-Id", fmt.Sprintf("shed-test-%03d", i))
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode == http.StatusTooManyRequests {
				shed <- resp.Header.Get("X-Request-Id")
			} else {
				shed <- ""
			}
			errs <- nil
		}(i)
	}
	var shedIDs []string
	for i := 0; i < parallel; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
		if id := <-shed; id != "" {
			shedIDs = append(shedIDs, id)
		}
	}
	if len(shedIDs) != parallel {
		t.Fatalf("with the slot held, all %d requests must shed; got %d", parallel, len(shedIDs))
	}

	byID := map[string][]logLine{}
	for _, l := range decodeLogLines(t, &logBuf) {
		byID[l.RequestID] = append(byID[l.RequestID], l)
	}
	for _, id := range shedIDs {
		lines := byID[id]
		var sawShed, sawRequest bool
		for _, l := range lines {
			if l.Msg == "request shed" && l.Level == "WARN" {
				sawShed = true
			}
			if l.Msg == "request" && l.Status == http.StatusTooManyRequests {
				sawRequest = true
			}
		}
		if !sawShed || !sawRequest {
			t.Errorf("shed request %q: shed warn %v, 429 request line %v (lines: %+v)",
				id, sawShed, sawRequest, lines)
		}
	}
}
