// Command loadgen drives scripted mixed workloads against the speed
// estimation API and reports latency quantiles, throughput, shed rate and
// error counts as a BENCH_loadgen_*.json document (optionally CSV). It is
// the macro-benchmark counterpart to cmd/benchrunner's micro-benchmarks: the
// proof (or refutation) that the paper's "real-time" claim survives
// concurrent load.
//
// Usage:
//
//	loadgen -smoke -duration 10s                        # in-process httptest target
//	loadgen -addr http://localhost:8080 -workload all   # live speedserver
//	loadgen -workload rush-hour -rate 500 -workers 16
//	loadgen -script my-workload.txt -duration 30s
//	loadgen -smoke -slo-p99 800ms -slo-shed 0.10        # CI gate: exit 1 on violation
//
// Built-in workloads: estimate-heavy, ingest-heavy, seeds-churn, rush-hour
// (ground-truth frames from the simulated 7-10am window), or "all" to run
// each in sequence. -script runs a custom workload file in the same format
// as the built-ins (see workload.go or README).
//
// Workers pace themselves to -rate requests/second fleet-wide (0 = closed
// loop) and measure latency from each request's *scheduled* start, so queue
// time behind a stalled server is charged to the latency distribution
// instead of being coordinated-omission'd away. Every request carries an
// X-Request-Id (loadgen-<run>-wNN-NNNNNN) that the server echoes, logs and
// attaches to its trace spans, so any slow entry in the report's "slowest"
// list can be chased through the server's logs and /debug/trace.
package main

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/obs"
)

// options collects every flag; the smoke test drives execute directly with a
// hand-built options value.
type options struct {
	addr     string
	smoke    bool
	city     string
	workload string
	script   string
	duration time.Duration
	workers  int
	rate     float64
	timeout  time.Duration
	out      string
	csvPath  string
	sloP99   time.Duration
	sloShed  float64
	sloErr   float64
	seed     int64
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("loadgen: ")

	var opt options
	flag.StringVar(&opt.addr, "addr", "http://localhost:8080", "base URL of a live speedserver (ignored with -smoke)")
	flag.BoolVar(&opt.smoke, "smoke", false, "run against an in-process httptest server instead of a live one")
	flag.StringVar(&opt.city, "city", "default", "dataset preset used to generate requests (and, with -smoke, to build the target): b, t or default")
	flag.StringVar(&opt.workload, "workload", "all", "built-in workload to run: estimate-heavy, ingest-heavy, seeds-churn, rush-hour, localized-ingest or all")
	flag.StringVar(&opt.script, "script", "", "path to a custom workload script (overrides -workload)")
	flag.DurationVar(&opt.duration, "duration", 10*time.Second, "run time per workload")
	flag.IntVar(&opt.workers, "workers", 8, "concurrent workers")
	flag.Float64Var(&opt.rate, "rate", 200, "target request rate per second across all workers (0 = closed loop)")
	flag.DurationVar(&opt.timeout, "timeout", 15*time.Second, "per-request client timeout")
	flag.StringVar(&opt.out, "out", "", "JSON report path (default BENCH_loadgen_<workload>.json)")
	flag.StringVar(&opt.csvPath, "csv", "", "optional CSV report path")
	flag.DurationVar(&opt.sloP99, "slo-p99", 0, "SLO gate: max estimate p99 latency (0 disables)")
	flag.Float64Var(&opt.sloShed, "slo-shed", 0, "SLO gate: max estimate shed+deadline rate in [0,1] (0 disables)")
	flag.Float64Var(&opt.sloErr, "slo-error", 0, "SLO gate: max estimate error rate in [0,1] (0 disables)")
	flag.Int64Var(&opt.seed, "seed", 1, "base PRNG seed for request generation")
	flag.Parse()

	report, err := execute(&opt, log.Printf)
	if err != nil {
		log.Fatal(err)
	}
	if err := writeReports(&opt, report); err != nil {
		log.Fatal(err)
	}
	if report.SLO != nil && !report.SLO.Passed {
		for _, v := range report.SLO.Violations {
			log.Printf("SLO violation: %s", v)
		}
		os.Exit(1)
	}
}

// execute runs the configured workloads and assembles the report. logf
// receives progress lines (the smoke test passes t.Logf).
func execute(opt *options, logf func(string, ...any)) (*Report, error) {
	obs.RegisterBuildInfo(obs.Default())
	workloads, err := resolveWorkloads(opt)
	if err != nil {
		return nil, err
	}

	var cfg dataset.Config
	switch opt.city {
	case "b":
		cfg = dataset.BCity()
	case "t":
		cfg = dataset.TCity()
	case "default":
		// Trimmed from dataset.DefaultConfig: loadgen measures the serving
		// path, so history length only slows down the fixture build.
		cfg = dataset.DefaultConfig()
		cfg.HistoryDays = 5
	default:
		return nil, fmt.Errorf("unknown -city %q", opt.city)
	}
	logf("building %s-city dataset for request generation...", opt.city)
	ds, err := dataset.Build(cfg)
	if err != nil {
		return nil, err
	}

	target := strings.TrimSuffix(opt.addr, "/")
	mode := "live"
	if opt.smoke {
		mode = "smoke"
		logf("training in-process model over %d roads...", ds.Net.NumRoads())
		store, err := core.NewStore(ds.Net, ds.DB, core.DefaultOptions())
		if err != nil {
			return nil, err
		}
		// Arm background rebuilds so mixed workloads that POST observations
		// exercise the hot-swap path, including incremental rebuilds when the
		// ingested delta touches a small fraction of the network.
		store.Start(core.StoreConfig{RebuildMinObs: 4000, IncrementalMaxDirtyFrac: 0.25})
		defer store.Close()
		srv, err := api.NewServerWith(store, api.Config{
			Metrics:              true,
			MaxInflightEstimates: 2 * runtime.GOMAXPROCS(0),
			EstimateTimeout:      10 * time.Second,
		})
		if err != nil {
			return nil, err
		}
		ts := httptest.NewServer(srv)
		defer ts.Close()
		target = ts.URL
	} else if err := checkTarget(target, ds.Net.NumRoads(), opt.timeout, logf); err != nil {
		return nil, err
	}

	var raw [4]byte
	if _, err := rand.Read(raw[:]); err != nil {
		return nil, err
	}
	runID := hex.EncodeToString(raw[:])

	var interval time.Duration
	if opt.rate > 0 {
		interval = time.Duration(float64(opt.workers) / opt.rate * float64(time.Second))
	}

	report := &Report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Mode:        mode,
		Target:      target,
		City:        opt.city,
		Workers:     opt.workers,
		RatePerSec:  opt.rate,
		DurationSec: opt.duration.Seconds(),
	}
	for _, w := range workloads {
		// Generators step the shared dataset simulator (rush-hour frames),
		// so they are built one at a time, before any worker starts.
		gen, err := newGenerator(w, ds)
		if err != nil {
			return nil, err
		}
		logf("running workload %s: %d workers, rate %.0f/s, %v...", w.Name, opt.workers, opt.rate, opt.duration)
		run, err := runWorkload(gen, runID+"-"+w.Name, target, opt, interval)
		if err != nil {
			return nil, err
		}
		if est, ok := run.Ops["estimate"]; ok {
			logf("  estimate: %d requests, p50 %.4fs p99 %.4fs p99.9 %.4fs, shed rate %.3f, %.1f ok/s",
				est.Requests, est.Latency.P50, est.Latency.P99, est.Latency.P999, est.ShedRate, est.Throughput)
		}
		report.Runs = append(report.Runs, run)
	}
	report.SLO = evaluateSLO(report, opt.sloP99, opt.sloShed, opt.sloErr)
	return report, nil
}

// runWorkload drives one workload's worker fleet for the configured
// duration and aggregates the results.
func runWorkload(gen *generator, runID, target string, opt *options, interval time.Duration) (WorkloadReport, error) {
	ctx, cancel := context.WithTimeout(context.Background(), opt.duration)
	defer cancel()
	workers := make([]*worker, opt.workers)
	start := time.Now()
	var wg sync.WaitGroup
	for i := range workers {
		workers[i] = newWorker(i, runID, target, gen, opt.seed, interval, opt.timeout)
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			w.run(ctx)
		}(workers[i])
	}
	wg.Wait()
	return aggregate(gen.workload.Name, workers, time.Since(start))
}

// resolveWorkloads parses the selected built-in scripts, or the -script file.
func resolveWorkloads(opt *options) ([]*Workload, error) {
	if opt.script != "" {
		src, err := os.ReadFile(opt.script)
		if err != nil {
			return nil, err
		}
		name := strings.TrimSuffix(filepath.Base(opt.script), filepath.Ext(opt.script))
		w, err := ParseScript(name, string(src))
		if err != nil {
			return nil, err
		}
		return []*Workload{w}, nil
	}
	names := []string{opt.workload}
	if opt.workload == "all" {
		names = workloadOrder
	}
	var out []*Workload
	for _, name := range names {
		src, ok := builtinScripts[name]
		if !ok {
			return nil, fmt.Errorf("unknown workload %q (want estimate-heavy, ingest-heavy, seeds-churn, rush-hour or all)", name)
		}
		w, err := ParseScript(name, src)
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}

// checkTarget confirms a live target is reachable and serves the same
// network the generator builds requests for: mismatched road counts would
// turn every estimate into a 400 and the whole report into noise.
func checkTarget(target string, wantRoads int, timeout time.Duration, logf func(string, ...any)) error {
	client := &http.Client{Timeout: timeout}
	resp, err := client.Get(target + "/v1/info")
	if err != nil {
		return fmt.Errorf("target %s unreachable: %w", target, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("target %s: /v1/info answered %d", target, resp.StatusCode)
	}
	var info struct {
		Roads int `json:"roads"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return fmt.Errorf("target %s: decoding /v1/info: %w", target, err)
	}
	if info.Roads != wantRoads {
		return fmt.Errorf("target serves %d roads but the -city preset generates for %d; start speedserver with the matching -city",
			info.Roads, wantRoads)
	}
	logf("target %s: %d roads, network matches", target, info.Roads)
	return nil
}

// writeReports writes the JSON (and optional CSV) report files.
func writeReports(opt *options, report *Report) error {
	out := opt.out
	if out == "" {
		name := opt.workload
		if opt.script != "" {
			name = strings.TrimSuffix(filepath.Base(opt.script), filepath.Ext(opt.script))
		}
		out = fmt.Sprintf("BENCH_loadgen_%s.json", name)
	}
	raw, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	log.Printf("report written to %s", out)
	if opt.csvPath != "" {
		f, err := os.Create(opt.csvPath)
		if err != nil {
			return err
		}
		if err := writeCSV(f, report); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		log.Printf("CSV written to %s", opt.csvPath)
	}
	return nil
}
