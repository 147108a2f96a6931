package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// tinyFixture is a three-road city with one truth frame; road 1 has no
// history, so it is not scored.
func tinyFixture() *fixture {
	return &fixture{
		Roads:        3,
		Observations: 10,
		Frames:       []frame{{Slot: 5, Truth: []float64{10, 10, 10}, Hist: []float64{9, 0, 12}}},
	}
}

// estimateBody renders an /v1/estimate answer with the given speeds.
func estimateBody(slot, seeded int, version uint64, speeds ...string) string {
	var roads []string
	for i, s := range speeds {
		roads = append(roads, fmt.Sprintf(`{"road":%d,"speed_mps":%s,"rel":1,"trend_up":true,"p_up":0.5}`, i, s))
	}
	return fmt.Sprintf(`{"slot":%d,"roads":[%s],"seeded":%d,"model_version":%d}`, slot, strings.Join(roads, ","), seeded, version)
}

// TestEveryAnswerIsChecked sends one request per canned answer and requires
// that only a well-formed answer counts as ok: a 2xx status alone is not
// enough.
func TestEveryAnswerIsChecked(t *testing.T) {
	fx := tinyFixture()
	estimate := op{kind: opEstimate, path: "/v1/estimate", body: []byte(`{}`), n: 2}
	ingest := op{kind: opIngest, path: "/v1/observations", body: []byte(`{}`), n: 150}
	seeds := seedsOp(2)
	for _, tc := range []struct {
		name   string
		o      op
		status int
		body   string
		ok     bool
	}{
		{"valid estimate", estimate, 200, estimateBody(5, 2, 1, "11", "10", "10"), true},
		{"estimate missing a road", estimate, 200, estimateBody(5, 2, 1, "11", "10"), false},
		{"estimate with a negative speed", estimate, 200, estimateBody(5, 2, 1, "11", "-1", "10"), false},
		{"estimate with a zero speed", estimate, 200, estimateBody(5, 2, 1, "11", "0", "10"), false},
		{"estimate for another slot", estimate, 200, estimateBody(6, 2, 1, "11", "10", "10"), false},
		{"estimate without a model version", estimate, 200, estimateBody(5, 2, 0, "11", "10", "10"), false},
		{"estimate with a wrong seed count", estimate, 200, estimateBody(5, 3, 1, "11", "10", "10"), false},
		{"estimate that is not JSON", estimate, 200, `{"slot":5,`, false},
		{"shed estimate", estimate, 429, `{"error":"server at capacity"}`, false},
		{"valid ingest", ingest, 202, `{"accepted":150,"buffered":300,"model_version":1}`, true},
		{"ingest answered 200", ingest, 200, `{"accepted":150,"buffered":300,"model_version":1}`, false},
		{"partially accepted ingest", ingest, 202, `{"accepted":149,"buffered":300,"model_version":1}`, false},
		{"valid seeds", seeds, 200, `{"k":2,"seeds":[0,2],"benefit":1.5,"model_version":1}`, true},
		{"seeds with a repeat", seeds, 200, `{"k":2,"seeds":[2,2],"benefit":1.5,"model_version":1}`, false},
		{"seeds out of range", seeds, 200, `{"k":2,"seeds":[0,3],"benefit":1.5,"model_version":1}`, false},
		{"too few seeds", seeds, 200, `{"k":2,"seeds":[0],"benefit":1.5,"model_version":1}`, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
				w.WriteHeader(tc.status)
				fmt.Fprint(w, tc.body)
			}))
			defer ts.Close()
			c := newClient(ts.URL, fx)
			defer c.close()
			res := c.do(context.Background(), tc.o, "tsb-test", time.Now(), false)
			if res.ok() != tc.ok {
				t.Fatalf("ok = %v (err %v), want %v", res.ok(), res.err, tc.ok)
			}
			if tc.o.kind == opEstimate && tc.ok {
				// Roads 0 and 2 have history: |11−10|+|10−10| against
				// |9−10|+|12−10|.
				if res.scored != 2 || res.absErr != 1 || res.histErr != 3 {
					t.Errorf("scored %d roads, abs error %v, historical error %v; want 2, 1, 3", res.scored, res.absErr, res.histErr)
				}
			}
		})
	}
}

// TestValidateRefusesForeignServer requires tsbench to refuse a server
// that answers on its port but is not serving the benchmark's city and model:
// a matching road count alone, the only check loadgen makes, is not enough.
func TestValidateRefusesForeignServer(t *testing.T) {
	fx := tinyFixture()
	for _, tc := range []struct {
		name  string
		model string
		ok    bool
	}{
		{"fresh model on the same history", `{"version":1,"observations":10}`, true},
		{"model trained on a shorter history", `{"version":1,"observations":4}`, false},
		{"model already rebuilt", `{"version":2,"observations":10}`, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				switch r.URL.Path {
				case "/v1/info":
					fmt.Fprint(w, `{"roads":3}`)
				case "/v1/model":
					fmt.Fprint(w, tc.model)
				default:
					http.NotFound(w, r)
				}
			}))
			defer ts.Close()
			s := &server{base: ts.URL, exited: make(chan struct{}), log: &tail{max: 1 << 10}}
			if err := s.validate(fx); (err == nil) != tc.ok {
				t.Fatalf("validate: %v, want ok=%v", err, tc.ok)
			}
		})
	}
}
