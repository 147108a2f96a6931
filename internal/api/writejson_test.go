package api

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestWriteJSONEncodesBeforeStatus: encoding/json refuses +Inf, and
// writeJSON used to send the status before it encoded, so such a value went
// out as a 200 with an empty body. It now answers 500 with an error body,
// and a value that encodes goes out byte for byte as before.
func TestWriteJSONEncodesBeforeStatus(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"speed_mps": math.Inf(1)})
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("non-finite value: status %d, want 500", rec.Code)
	}
	var body errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error == "" {
		t.Errorf("non-finite value: body %q is not an error body (%v)", rec.Body.String(), err)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("non-finite value: Content-Type %q", ct)
	}

	rec = httptest.NewRecorder()
	writeJSON(rec, http.StatusAccepted, map[string]float64{"speed_mps": 8.5})
	if rec.Code != http.StatusAccepted || rec.Body.String() != "{\"speed_mps\":8.5}\n" {
		t.Errorf("finite value: status %d, body %q", rec.Code, rec.Body.String())
	}
}
