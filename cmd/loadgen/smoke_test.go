package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
	"time"
)

func TestParseScriptBuiltins(t *testing.T) {
	for name, src := range builtinScripts {
		w, err := ParseScript(name, src)
		if err != nil {
			t.Fatalf("built-in %s does not parse: %v", name, err)
		}
		total := 0
		for _, weight := range w.Weights {
			total += weight
		}
		if total == 0 {
			t.Errorf("built-in %s has no op weights", name)
		}
	}
	w, err := ParseScript("rush-hour", scriptRushHour)
	if err != nil {
		t.Fatal(err)
	}
	if w.Replay == nil || w.Replay.HourFrom != 7 || w.Replay.HourTo != 10 {
		t.Errorf("rush-hour replay = %+v, want 7..10", w.Replay)
	}
	if w.Estimate.Reports != 60 || w.Estimate.Noise != 0.05 {
		t.Errorf("rush-hour estimate params = %+v", w.Estimate)
	}
	w, err = ParseScript("localized-ingest", scriptLocalizedIngest)
	if err != nil {
		t.Fatal(err)
	}
	if w.Skew == nil || w.Skew.HotLoPct != 0 || w.Skew.HotHiPct != 10 || w.Skew.Frac != 0.9 {
		t.Errorf("localized-ingest skew = %+v, want hot 0..10 frac 0.9", w.Skew)
	}
}

// TestIngestRoadSkew draws from a skewed generator and checks the hot slice
// actually receives ~frac of the traffic.
func TestIngestRoadSkew(t *testing.T) {
	w, err := ParseScript("localized-ingest", scriptLocalizedIngest)
	if err != nil {
		t.Fatal(err)
	}
	g := &generator{workload: w, numRoads: 200}
	rng := rand.New(rand.NewSource(1))
	const draws = 20000
	hot := 0
	for i := 0; i < draws; i++ {
		r := g.ingestRoad(rng)
		if r < 0 || int(r) >= g.numRoads {
			t.Fatalf("road %d out of range [0, %d)", r, g.numRoads)
		}
		if int(r) < g.numRoads/10 {
			hot++
		}
	}
	// Expected hot share: frac + (1-frac)·10% = 0.91; allow generous slack.
	got := float64(hot) / draws
	if got < 0.85 || got > 0.97 {
		t.Errorf("hot-slice share = %.3f, want ≈ 0.91", got)
	}
}

func TestParseScriptErrors(t *testing.T) {
	for _, tc := range []struct{ name, src, wantErr string }{
		{"empty", "", "no positive op weights"},
		{"badkind", "mix walk=10", "unknown op kind"},
		{"baddirective", "teleport to=work", "unknown directive"},
		{"badpair", "mix estimate", "not key=value"},
		{"badweight", "mix estimate=-3", "non-negative"},
		{"badrange", "mix seeds=10\nseeds k=60..10", "range lo..hi needs lo ≤ hi"},
		{"badhours", "mix estimate=1\nreplay hours=7..7", "0 ≤ from < to ≤ 24"},
		{"badskewrange", "mix ingest=1\nskew hot=30..120", "0 ≤ lo < hi ≤ 100"},
		{"badskewfrac", "mix ingest=1\nskew hot=0..10 frac=1.5", "must be in (0, 1]"},
		{"unknownfield", "mix estimate=1\nestimate reprots=40", "unknown field"},
		{"dupfield", "mix estimate=1 estimate=2", "duplicate field"},
	} {
		_, err := ParseScript(tc.name, tc.src)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestSmokeRun drives the full loadgen path — in-process server, estimate
// and rush-hour workloads, JSON round trip — and asserts the accounting
// balances: every issued request lands in exactly one outcome bucket, and
// quantiles come out ordered.
func TestSmokeRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a model and generates ~1.5s of load")
	}
	opt := &options{
		smoke:    true,
		city:     "default",
		workload: "all",
		duration: 1200 * time.Millisecond,
		workers:  4,
		rate:     120,
		timeout:  10 * time.Second,
		sloErr:   0.01,
		seed:     1,
	}
	report, err := execute(opt, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Runs) != len(workloadOrder) {
		t.Fatalf("ran %d workloads, want %d", len(report.Runs), len(workloadOrder))
	}

	// JSON round trip: the report must survive serialization, including the
	// embedded HDR snapshots.
	raw, err := json.Marshal(report)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Report
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}

	for i, run := range back.Runs {
		if run.Workload != workloadOrder[i] {
			t.Errorf("run %d = %s, want %s", i, run.Workload, workloadOrder[i])
		}
		est, ok := run.Ops["estimate"]
		if !ok || est.Requests == 0 {
			t.Errorf("%s: no estimate traffic recorded", run.Workload)
			continue
		}
		for kind, op := range run.Ops {
			// Shed/error accounting balances: outcomes partition requests.
			sum := op.OK + op.Shed + op.Deadline + op.ClientErrors + op.ServerErrors + op.NetErrors
			if op.Requests != sum {
				t.Errorf("%s/%s: requests %d != outcome sum %d", run.Workload, kind, op.Requests, sum)
			}
			if got := op.HDR.Count(); got != op.Requests {
				t.Errorf("%s/%s: HDR count %d != requests %d", run.Workload, kind, got, op.Requests)
			}
			if op.ClientErrors != 0 || op.ServerErrors != 0 || op.NetErrors != 0 {
				t.Errorf("%s/%s: errors against in-process server: client %d server %d net %d (slowest: %+v)",
					run.Workload, kind, op.ClientErrors, op.ServerErrors, op.NetErrors, op.Slowest)
			}
			l := op.Latency
			if !(l.P50 <= l.P90 && l.P90 <= l.P99 && l.P99 <= l.P999 && l.P999 <= l.Max) {
				t.Errorf("%s/%s: quantiles unordered: %+v", run.Workload, kind, l)
			}
			if op.OK > 0 && (l.P50 <= 0 || l.Max <= 0) {
				t.Errorf("%s/%s: non-positive latency quantiles with %d oks: %+v", run.Workload, kind, op.OK, l)
			}
			for _, slow := range op.Slowest {
				if !strings.HasPrefix(slow.RequestID, "loadgen-") {
					t.Errorf("%s/%s: slow request ID %q missing loadgen- prefix", run.Workload, kind, slow.RequestID)
				}
			}
		}
	}

	// The error-rate SLO gate was configured and must have been evaluated.
	if back.SLO == nil {
		t.Fatal("SLO gate configured but absent from report")
	}
	if !back.SLO.Passed {
		t.Errorf("SLO violations against in-process server: %v", back.SLO.Violations)
	}

	// CSV rendering of the same report works and has one row per (run, op).
	var csvBuf bytes.Buffer
	if err := writeCSV(&csvBuf, &back); err != nil {
		t.Fatalf("writeCSV: %v", err)
	}
	wantRows := 1 // header
	for _, run := range back.Runs {
		wantRows += len(run.Ops)
	}
	if got := strings.Count(strings.TrimSpace(csvBuf.String()), "\n") + 1; got != wantRows {
		t.Errorf("CSV has %d rows, want %d:\n%s", got, wantRows, csvBuf.String())
	}
}

// TestSLOGate exercises evaluateSLO thresholds directly.
func TestSLOGate(t *testing.T) {
	report := &Report{Runs: []WorkloadReport{{
		Workload: "estimate-heavy",
		Ops: map[string]OpReport{"estimate": {
			Requests: 100, OK: 80, Shed: 15, Deadline: 5,
			ShedRate: 0.20,
			Latency:  LatencySummary{P99: 0.9},
		}},
	}}}
	if got := evaluateSLO(report, 0, 0, 0); got != nil {
		t.Errorf("unconfigured gate should be nil, got %+v", got)
	}
	slo := evaluateSLO(report, 800*time.Millisecond, 0.10, 0.01)
	if slo.Passed || len(slo.Violations) != 2 {
		t.Fatalf("want 2 violations (p99, shed), got %+v", slo)
	}
	slo = evaluateSLO(report, 2*time.Second, 0.5, 0.01)
	if !slo.Passed {
		t.Fatalf("relaxed gate should pass, got %+v", slo)
	}
}
