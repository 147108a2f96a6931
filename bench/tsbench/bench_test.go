package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// The tests below start real servers, built once per test binary into
// serverDir; -short skips them.
var (
	serverDir   string
	serverBuild sync.Once
	serverErr   error
)

func TestMain(m *testing.M) {
	code := m.Run()
	if serverDir != "" {
		os.RemoveAll(serverDir)
	}
	os.Exit(code)
}

// servers returns a directory holding freshly built speedserver and
// tracedserver binaries.
func servers(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("starts real servers")
	}
	serverBuild.Do(func() {
		if serverDir, serverErr = os.MkdirTemp("", "tsbench-test-"); serverErr != nil {
			return
		}
		for name, pkg := range map[string]string{
			"speedserver":  "repro/cmd/speedserver",
			"tracedserver": "repro/bench/tracedserver",
		} {
			out, err := exec.Command("go", "build", "-o", filepath.Join(serverDir, name), pkg).CombinedOutput()
			if err != nil {
				serverErr = fmt.Errorf("building %s: %v\n%s", pkg, err, out)
				return
			}
		}
	})
	if serverErr != nil {
		t.Fatal(serverErr)
	}
	return serverDir
}

// rawAnswer sends o and returns the status and body exactly as received.
func rawAnswer(t *testing.T, s *server, o op) (int, string) {
	t.Helper()
	method := http.MethodGet
	var body io.Reader
	if o.body != nil {
		method, body = http.MethodPost, strings.NewReader(string(o.body))
	}
	req, err := http.NewRequest(method, s.base+o.path, body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(raw)
}

// TestTracedServerAnswersLikeSpeedserver sends the verify passes of the
// estimate workloads, seeded-loop's seed selection first, to speedserver and
// to the traced server, and requires byte-identical answers: the per-layer
// numbers are measured on the program that is served.
func TestTracedServerAnswersLikeSpeedserver(t *testing.T) {
	dir := servers(t)
	fx, err := buildFixture()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	served, err := startServer(ctx, filepath.Join(dir, "speedserver"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer served.kill()
	traced, err := startServer(ctx, filepath.Join(dir, "tracedserver"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer traced.kill()

	same := func(o op) string {
		t.Helper()
		sa, a := rawAnswer(t, served, o)
		sb, b := rawAnswer(t, traced, o)
		if sa != sb || a != b {
			t.Fatalf("%s: speedserver answered %d %.300s\ntraced server answered %d %.300s", o.path, sa, a, sb, b)
		}
		return a
	}
	same(op{path: "/v1/info"})
	for _, name := range []string{"seeded-loop", "adhoc-estimate"} {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		g := &generator{w: w, fx: fx}
		if w.seedK > 0 {
			if g.seeds, err = checkSeeds([]byte(same(seedsOp(w.seedK))), w.seedK, fx.Roads); err != nil {
				t.Fatal(err)
			}
		}
		for _, o := range verifyOps(g, verifyRequests) {
			same(o)
		}
	}
}

// benchmarkSpec is the part of BENCHMARK.json the smoke test compares with.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestHarnessSmoke runs every workload untraced and traced for 2 s each.
// It requires correct runs whose metric names and units are exactly those
// BENCHMARK.json declares, whose outcomes partition the requests sent, and
// whose percentiles are ordered.
func TestHarnessSmoke(t *testing.T) {
	dir := servers(t)
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, tsbench has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, tsbench %q", i, spec.Workloads[i].Name, w.name)
		}
	}

	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, trace), func(t *testing.T) {
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
				defer cancel()
				rep, err := run(ctx, options{
					workload: w.name, seed: 1, seconds: 2, trace: trace, dir: dir, setups: 1, minTail: 1,
				}, t.Logf)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.correct || rep.failed != 0 {
					t.Fatalf("run not correct: %d of %d requests failed", rep.failed, rep.attempted)
				}

				want := spec.EndToEnd
				if trace {
					want = spec.PerLayer
				}
				if len(rep.metrics) != len(want) {
					t.Fatalf("%d metrics, BENCHMARK.json declares %d", len(rep.metrics), len(want))
				}
				values := map[string]float64{}
				for i, m := range rep.metrics {
					if m.name != want[i].Name || m.unit != want[i].Unit {
						t.Errorf("metric %d is %s [%s], BENCHMARK.json declares %s [%s]", i, m.name, m.unit, want[i].Name, want[i].Unit)
					}
					values[m.name] = m.value
				}

				var sent, ok, failed [len(opNames)]int
				for _, r := range rep.results {
					sent[r.kind]++
					if r.ok() {
						ok[r.kind]++
					} else {
						failed[r.kind]++
					}
				}
				total := 0
				for k := range sent {
					if ok[k]+failed[k] != sent[k] {
						t.Errorf("%s: %d ok + %d failed != %d sent", opKind(k), ok[k], failed[k], sent[k])
					}
					total += sent[k]
				}
				if total != rep.attempted {
					t.Errorf("outcomes cover %d requests, report says %d attempted", total, rep.attempted)
				}
				if (sent[opIngest] > 0) != (w.ingestEvery > 0) || (sent[opSeeds] > 0) != (w.churn || w.seedK > 0) {
					t.Errorf("request kinds sent %v do not match the workload", sent)
				}

				for _, pair := range [][2]string{
					{"client.estimate_p50_ms", "client.estimate_p75_ms"},
					{"core.round_ms_p50", "core.round_ms_p75"},
				} {
					lo, okLo := values[pair[0]]
					hi, okHi := values[pair[1]]
					if okLo && okHi && !(0 < lo && lo <= hi) {
						t.Errorf("%s %v and %s %v are not ordered", pair[0], lo, pair[1], hi)
					}
				}
			})
		}
	}
}
