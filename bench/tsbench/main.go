// Command tsbench benchmarks the served trend→speed path. For one workload
// and seed it launches a fresh speedserver with its default flags on a
// loopback port, drives the workload's traffic over at most two connections,
// checks every response, and prints each metric as "workload metric value
// unit", then one JSON line with the keys correct, attempted, failed and
// metrics. With --trace 1 it runs the traced server instead and reports the
// per-layer metrics.
//
// bench/run.sh builds the binaries into .bench_build and runs it from the
// repository root:
//
//	bash bench/run.sh --workload adhoc-estimate --seed 1 --seconds 7 --trace 0
//
// A run: build tsbench's copy of the city, start the server setupRuns times
// and report the median CPU time it used until its first /health 200, refuse
// a server that is not the fresh child serving that city, send the verify
// pass, which scores the estimates, warm up, then send the workload's traffic
// for --seconds, and stop the server with SIGTERM, requiring a clean exit.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/bench/benchtrace"
)

const (
	setupRuns = 3
	// verifyRequests covers each of the 18 estimate frames twice on the
	// estimate-only workloads.
	verifyRequests = 36
	// The warm-up sends warmupSpeedup times the workload's rate for warmup:
	// 120 requests on adhoc-estimate. Until the server's first garbage
	// collection after set-up, set-up's garbage stays resident, 6 to 18 MB
	// on adhoc-estimate, and that collection comes 30 to more than 90
	// estimates after the verify pass; rss_mb must not sample it.
	warmup        = 2 * time.Second
	warmupSpeedup = 3
	// runDeadline ends a run that hangs well before three minutes.
	runDeadline = 170 * time.Second
)

// options configures one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// dir holds the speedserver and tracedserver binaries.
	dir string
	// setups is how many times the server is started; the last one is
	// measured.
	setups int
	// minTail is how many samples a reported percentile needs beyond it.
	minTail int
}

type metric struct {
	name  string
	value float64
	unit  string
}

type report struct {
	workload          string
	correct           bool
	attempted, failed int
	metrics           []metric
	results           []result
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("tsbench: ")
	opt := options{setups: setupRuns, minTail: minTail}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	flag.StringVar(&opt.workload, "workload", "", "workload: "+strings.Join(names, ", "))
	flag.Int64Var(&opt.seed, "seed", 1, "seed the workload's requests are generated from")
	flag.Float64Var(&opt.seconds, "seconds", 7, "length of the measured phase, in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced server and reports per-layer metrics instead of end-to-end ones")
	flag.StringVar(&opt.dir, "dir", ".bench_build", "directory holding the speedserver and tracedserver binaries")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		log.Fatalf("--trace must be 0 or 1, got %d", *trace)
	}
	opt.trace = *trace == 1

	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	rep, err := run(ctx, opt, log.Printf)
	stop()
	cancel()
	if err != nil {
		log.Printf("%s: %v", opt.workload, err)
		os.Exit(1)
	}
	if err := rep.print(os.Stdout); err != nil {
		log.Fatal(err)
	}
	if !rep.correct {
		os.Exit(1)
	}
}

// print writes one "workload metric value unit" line per metric, then the
// JSON result line.
func (r *report) print(w io.Writer) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, map[string]value{}}
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%s %s %s %s\n", r.workload, m.name, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit)
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	return json.NewEncoder(w).Encode(out)
}

// run measures one workload. Failed requests make the report incorrect; an
// error means nothing could be measured.
func run(ctx context.Context, opt options, logf func(string, ...any)) (*report, error) {
	w, err := findWorkload(opt.workload)
	if err != nil {
		return nil, err
	}
	if !(opt.seconds > 0) {
		return nil, fmt.Errorf("--seconds must be positive, got %v", opt.seconds)
	}
	fx, err := buildFixture()
	if err != nil {
		return nil, err
	}
	bin := filepath.Join(opt.dir, "speedserver")
	if opt.trace {
		bin = filepath.Join(opt.dir, "tracedserver")
	}

	// Set-up: every launch but the last is stopped as soon as it answers. A
	// traced run reports no set-up time, so it launches once.
	launches := max(1, opt.setups)
	if opt.trace {
		launches = 1
	}
	var setups, walls []float64
	var srv *server
	for i := 0; i < launches; i++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return nil, err
			}
		}
		if srv, err = startServer(ctx, bin, w.serverArgs); err != nil {
			return nil, err
		}
		setups = append(setups, srv.readyCPU.Seconds())
		walls = append(walls, srv.ready.Seconds())
	}
	defer srv.kill()
	logf("set-up CPU times %v s, wall-clock times %v s", setups, walls)
	if err := srv.validate(fx); err != nil {
		return nil, err
	}
	c := newClient(srv.base, fx)
	defer c.close()
	g := &generator{w: w, fx: fx}

	var all []result
	if w.seedK > 0 {
		res := c.do(ctx, seedsOp(w.seedK), "tsb-select", time.Now(), false)
		all = append(all, res)
		if !res.ok() {
			return nil, fmt.Errorf("selecting %d seeds: %w", w.seedK, res.err)
		}
		g.seeds = res.seeds
		logf("selected %d seeds in %.0f ms", w.seedK, durMS(res.latency()))
	}
	verify := runSequential(ctx, c, g, verifyRequests)
	all = append(all, verify...)
	for _, r := range verify {
		if !r.ok() {
			return nil, fmt.Errorf("verify pass: %s %s: %w", r.kind, r.id, r.err)
		}
	}
	all = append(all, drive(ctx, c, g, opt.seed, phaseWarmup, warmup, warmupSpeedup*w.rate, false)...)

	var before, after *benchtrace.Snapshot
	if opt.trace {
		if before, err = c.snapshot(ctx); err != nil {
			return nil, err
		}
	}
	cpu0, err := srv.cpu()
	if err != nil {
		return nil, err
	}
	steal0, ticks0, err := hostTicks()
	if err != nil {
		return nil, err
	}
	stopRSS := make(chan struct{})
	var rss []float64
	var rssErr error
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		rss, rssErr = srv.sampleRSS(stopRSS)
	}()
	measured := drive(ctx, c, g, opt.seed, phaseMeasure, time.Duration(opt.seconds*float64(time.Second)), w.rate, opt.trace)
	close(stopRSS)
	<-sampled
	if rssErr != nil {
		return nil, rssErr
	}
	cpu1, err := srv.cpu()
	if err != nil {
		return nil, err
	}
	steal1, ticks1, err := hostTicks()
	if err != nil {
		return nil, err
	}
	logf("host steal during the measured phase: %.1f%% of CPU time", 100*ratio(float64(steal1-steal0), float64(ticks1-ticks0)))
	if opt.trace {
		if after, err = c.snapshot(ctx); err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if !srv.alive() {
		return nil, fmt.Errorf("server died during the run: %v\n%s", srv.waitErr, srv.log)
	}
	if err := srv.stop(); err != nil {
		return nil, err
	}
	all = append(all, measured...)

	rep := &report{workload: w.name, attempted: len(all), results: all}
	for _, r := range all {
		if !r.ok() {
			rep.failed++
		}
	}
	mae, baseline, scored := scoreMAE(verify)
	logOutcomes(logf, all)
	logf("verify-pass estimate MAE %.4f m/s vs historical-mean MAE %.4f m/s over %d estimates", mae, baseline, scored)
	if loadMAE, loadBaseline, n := scoreMAE(measured); n > 0 {
		logf("measured-phase estimate MAE %.4f m/s vs historical-mean MAE %.4f m/s over %d estimates", loadMAE, loadBaseline, n)
	}
	if opt.trace {
		if rep.metrics, err = layerMetrics(measured, before, after, cpu1-cpu0, opt.minTail); err != nil {
			return nil, err
		}
	} else {
		lat := hist(estimateLatencies(measured))
		p50, err1 := percentile(lat, 0.5, opt.minTail)
		p75, err2 := percentile(lat, 0.75, opt.minTail)
		if err := errors.Join(err1, err2); err != nil {
			return nil, fmt.Errorf("estimate latency: %w", err)
		}
		logf("estimate latency from the scheduled send: p50 %.2f ms, p75 %.2f ms over %d estimates", p50, p75, lat.Count())
		logf("server CPU %.2f ms per ok request", cpuPerOp(cpu1-cpu0, measured))
		rep.metrics = endToEnd(setups, mae, median(rss))
	}
	for _, m := range rep.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.name, m.value)
		}
	}
	rep.correct = rep.failed == 0 && scored > 0 && mae < baseline
	return rep, nil
}

// endToEnd computes the metrics a user or operator of the served system sees
// and that repeat from run to run on a shared host. Set-up is timed in the
// server's CPU time, because host steal stretches wall-clock times by more
// than any bound between runs minutes apart. Estimate latency and the
// server's CPU per request drift with the host's speed by more than a bound
// too, so the traced run reports them as per-layer metrics and an untraced
// run only logs them.
func endToEnd(setups []float64, mae, rss float64) []metric {
	return []metric{
		{"setup_s", median(setups), "s"},
		{"estimate_mae_mps", mae, "m/s"},
		{"rss_mb", rss, "MB"},
	}
}

// cpuPerOp is the server's CPU time over a phase per ok request of it, in ms.
func cpuPerOp(cpu time.Duration, results []result) float64 {
	okOps := 0
	for _, r := range results {
		if r.ok() {
			okOps++
		}
	}
	return ratio(durMS(cpu), float64(okOps))
}

// estimateLatencies returns the latency of every estimate from its scheduled
// send, in ms; a failed estimate misses every latency limit, so it counts as
// failedMS.
func estimateLatencies(results []result) []float64 {
	var lat []float64
	for _, r := range results {
		if r.kind != opEstimate {
			continue
		}
		if r.ok() {
			lat = append(lat, durMS(r.latency()))
		} else {
			lat = append(lat, failedMS)
		}
	}
	return lat
}

// scoreMAE returns the mean absolute error of the ok estimates among results,
// the historical-mean baseline's error on the same roads, and how many
// estimates were scored.
func scoreMAE(results []result) (mae, baseline float64, estimates int) {
	var absErr, histErr float64
	roads := 0
	for _, r := range results {
		if r.ok() && r.scored > 0 {
			absErr += r.absErr
			histErr += r.histErr
			roads += r.scored
			estimates++
		}
	}
	return ratio(absErr, float64(roads)), ratio(histErr, float64(roads)), estimates
}

// logOutcomes writes how the requests of each kind ended; ok and failed
// partition them. The first few failures are shown in full.
func logOutcomes(logf func(string, ...any), all []result) {
	var sent, ok [len(opNames)]int
	var failures []error
	for _, r := range all {
		sent[r.kind]++
		if r.ok() {
			ok[r.kind]++
		} else if len(failures) < 5 {
			failures = append(failures, fmt.Errorf("%s %s: %w", r.kind, r.id, r.err))
		}
	}
	for k := range sent {
		if sent[k] > 0 {
			logf("%s: %d sent, %d ok, %d failed", opKind(k), sent[k], ok[k], sent[k]-ok[k])
		}
	}
	if len(failures) > 0 {
		logf("failures: %v", errors.Join(failures...))
	}
}
