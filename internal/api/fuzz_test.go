package api

import (
	"bytes"
	"net/http/httptest"
	"testing"
)

// The request-parsing fuzz targets pin one property: no request body — no
// matter how malformed (broken JSON, NaN/Inf-adjacent numbers, out-of-range
// roads and slots, duplicate reports, unknown fields) — may produce a 5xx.
// Bad input is the caller's fault (4xx); a 5xx or a recovered panic means
// the validation boundary leaked. The middleware converts handler panics to
// 500, so this property also catches panics.

// assertNo5xx posts body to path on srv and fails on any 5xx answer.
func assertNo5xx(t *testing.T, srv *Server, path string, body []byte) {
	t.Helper()
	req := httptest.NewRequest("POST", path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code >= 500 {
		t.Fatalf("%s answered %d on crafted input %q: %s", path, rec.Code, body, rec.Body.String())
	}
}

func FuzzEstimateRequest(f *testing.F) {
	_, st := fixtures(f)
	srv, err := newServer(st)
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range []string{
		`{"slot":3,"reports":[{"road":0,"speed_mps":12.5}]}`,
		`{"slot":-1,"reports":[{"road":0,"speed_mps":12.5}]}`,
		`{"slot":2147483647,"reports":[{"road":0,"speed_mps":10}]}`,
		`{"slot":3,"reports":[{"road":-5,"speed_mps":12.5}]}`,
		`{"slot":3,"reports":[{"road":99999,"speed_mps":12.5}]}`,
		`{"slot":3,"reports":[{"road":0,"speed_mps":-1}]}`,
		`{"slot":3,"reports":[{"road":0,"speed_mps":0}]}`,
		`{"slot":3,"reports":[{"road":0,"speed_mps":1e308},{"road":1,"speed_mps":1e-308}]}`,
		`{"slot":3,"reports":[{"road":0,"speed_mps":12.5},{"road":0,"speed_mps":3}]}`,
		`{"slot":3,"reports":[{"road":0,"speed_mps":null}]}`,
		`{"slot":3,"reports":[]}`,
		`{"unknown_field":1,"slot":3,"reports":[{"road":0,"speed_mps":9}]}`,
		`{}`,
		``,
		`not json at all`,
		`[1,2,3]`,
		`{"slot":"three","reports":[{"road":0,"speed_mps":9}]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		assertNo5xx(t, srv, "/v1/estimate", body)
	})
}

func FuzzObservationsRequest(f *testing.F) {
	// A private store: ingestion mutates the rebuild buffer, which must not
	// drift under the shared read-only fixture's tests.
	_, st := freshStore(f)
	srv, err := newServer(st)
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range []string{
		`{"observations":[{"road":0,"slot":3,"speed_mps":9.5}]}`,
		`{"observations":[{"road":-1,"slot":3,"speed_mps":9.5}]}`,
		`{"observations":[{"road":0,"slot":-3,"speed_mps":9.5}]}`,
		`{"observations":[{"road":0,"slot":3,"speed_mps":-2}]}`,
		`{"observations":[{"road":0,"slot":3,"speed_mps":1e308}]}`,
		`{"observations":[{"road":0,"slot":3,"speed_mps":null}]}`,
		`{"observations":[]}`,
		`{"observations":[{"road":0,"slot":2147483647,"speed_mps":5}]}`,
		`{"unknown":true}`,
		`{}`,
		``,
		`"observations"`,
		`{"observations":"many"}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		assertNo5xx(t, srv, "/v1/observations", body)
	})
}
