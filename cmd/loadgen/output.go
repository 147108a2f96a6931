package main

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"

	"repro/internal/obs"
)

// Report is the top-level BENCH_loadgen_*.json document.
type Report struct {
	GeneratedAt string  `json:"generated_at"`
	Mode        string  `json:"mode"` // "smoke" (in-process httptest) or "live"
	Target      string  `json:"target"`
	City        string  `json:"city"`
	Workers     int     `json:"workers"`
	RatePerSec  float64 `json:"rate_per_sec"` // 0 = closed loop
	DurationSec float64 `json:"duration_sec"` // per workload

	Runs []WorkloadReport `json:"runs"`

	// SLO carries the gate configuration and per-run verdicts when the gate
	// flags were set; absent otherwise.
	SLO *SLOReport `json:"slo,omitempty"`
}

// WorkloadReport is one workload's aggregated results.
type WorkloadReport struct {
	Workload string              `json:"workload"`
	Ops      map[string]OpReport `json:"ops"`
}

// OpReport aggregates one op kind across all workers of a run.
type OpReport struct {
	Requests     uint64 `json:"requests"`
	OK           uint64 `json:"ok"`
	Shed         uint64 `json:"shed"`
	Deadline     uint64 `json:"deadline"`
	ClientErrors uint64 `json:"client_errors"`
	ServerErrors uint64 `json:"server_errors"`
	NetErrors    uint64 `json:"net_errors"`

	ShedRate   float64 `json:"shed_rate"`  // (shed + deadline) / requests
	ErrorRate  float64 `json:"error_rate"` // (client + server + net errors) / requests
	Throughput float64 `json:"throughput"` // successful requests / wall second

	Latency LatencySummary `json:"latency_seconds"`
	Slowest []slowRequest  `json:"slowest,omitempty"`

	// HDR is the merged histogram snapshot itself, so later tooling can
	// recompute any quantile or merge reports across runs.
	HDR obs.HDRSnapshot `json:"hdr"`
}

// LatencySummary is the quantile digest of an op's merged HDR histogram.
type LatencySummary struct {
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	P999 float64 `json:"p99_9"`
	Max  float64 `json:"max"`
	Mean float64 `json:"mean"`
}

// SLOReport records the gate thresholds and every violation found.
type SLOReport struct {
	P99LatencySeconds float64  `json:"p99_latency_seconds,omitempty"`
	MaxShedRate       float64  `json:"max_shed_rate,omitempty"`
	MaxErrorRate      float64  `json:"max_error_rate,omitempty"`
	Violations        []string `json:"violations"`
	Passed            bool     `json:"passed"`
}

// aggregate merges the per-worker stats of one workload run into a
// WorkloadReport. Per-worker HDR histograms are combined through snapshot
// Merge — the whole reason the histograms are mergeable — so no worker ever
// contends on a shared histogram during the run.
func aggregate(name string, workers []*worker, elapsed time.Duration) (WorkloadReport, error) {
	rep := WorkloadReport{Workload: name, Ops: map[string]OpReport{}}
	merged := map[string]*opStats{}
	hdrs := map[string]obs.HDRSnapshot{}
	for _, w := range workers {
		for kind, st := range w.stats {
			m, ok := merged[kind]
			if !ok {
				m = newOpStats()
				merged[kind] = m
				hdrs[kind] = st.latency.Snapshot()
			} else {
				combined, err := hdrs[kind].Merge(st.latency.Snapshot())
				if err != nil {
					return rep, fmt.Errorf("merging %s histograms: %w", kind, err)
				}
				hdrs[kind] = combined
			}
			for outcome, n := range st.outcomes {
				m.outcomes[outcome] += n
			}
			m.slowest = append(m.slowest, st.slowest...)
		}
	}
	for kind, m := range merged {
		snap := hdrs[kind]
		sort.Slice(m.slowest, func(i, j int) bool { return m.slowest[i].Seconds > m.slowest[j].Seconds })
		if len(m.slowest) > slowestKeep {
			m.slowest = m.slowest[:slowestKeep]
		}
		op := OpReport{
			OK:           m.outcomes[outcomeOK],
			Shed:         m.outcomes[outcomeShed],
			Deadline:     m.outcomes[outcomeDeadline],
			ClientErrors: m.outcomes[outcomeClientErr],
			ServerErrors: m.outcomes[outcomeServerErr],
			NetErrors:    m.outcomes[outcomeNetErr],
			Slowest:      m.slowest,
			HDR:          snap,
			Latency: LatencySummary{
				P50:  snap.Quantile(0.5),
				P90:  snap.Quantile(0.9),
				P99:  snap.Quantile(0.99),
				P999: snap.Quantile(0.999),
				Max:  snap.MaxSeen,
				Mean: snap.Mean(),
			},
		}
		op.Requests = op.OK + op.Shed + op.Deadline + op.ClientErrors + op.ServerErrors + op.NetErrors
		if op.Requests > 0 {
			op.ShedRate = float64(op.Shed+op.Deadline) / float64(op.Requests)
			op.ErrorRate = float64(op.ClientErrors+op.ServerErrors+op.NetErrors) / float64(op.Requests)
		}
		if elapsed > 0 {
			op.Throughput = float64(op.OK) / elapsed.Seconds()
		}
		rep.Ops[kind] = op
	}
	return rep, nil
}

// evaluateSLO checks every run's estimate op against the gate thresholds.
// Zero thresholds are "not configured". The gate reads the estimate op
// because that is the paper's real-time path; other ops still count via
// their error rates folding into the same report for human review.
func evaluateSLO(report *Report, p99Max time.Duration, shedMax, errMax float64) *SLOReport {
	if p99Max <= 0 && shedMax <= 0 && errMax <= 0 {
		return nil
	}
	slo := &SLOReport{
		P99LatencySeconds: p99Max.Seconds(),
		MaxShedRate:       shedMax,
		MaxErrorRate:      errMax,
		Violations:        []string{},
	}
	for _, run := range report.Runs {
		est, ok := run.Ops["estimate"]
		if !ok {
			continue
		}
		if p99Max > 0 && est.Latency.P99 > p99Max.Seconds() {
			slo.Violations = append(slo.Violations, fmt.Sprintf(
				"%s: estimate p99 %.4fs exceeds %.4fs", run.Workload, est.Latency.P99, p99Max.Seconds()))
		}
		if shedMax > 0 && est.ShedRate > shedMax {
			slo.Violations = append(slo.Violations, fmt.Sprintf(
				"%s: estimate shed rate %.4f exceeds %.4f", run.Workload, est.ShedRate, shedMax))
		}
		if errMax > 0 && est.ErrorRate > errMax {
			slo.Violations = append(slo.Violations, fmt.Sprintf(
				"%s: estimate error rate %.4f exceeds %.4f", run.Workload, est.ErrorRate, errMax))
		}
	}
	slo.Passed = len(slo.Violations) == 0
	return slo
}

// writeCSV renders the report as one row per (workload, op) for
// spreadsheet-side trend tracking.
func writeCSV(w io.Writer, report *Report) error {
	cw := csv.NewWriter(w)
	header := []string{
		"workload", "op", "requests", "ok", "shed", "deadline",
		"client_errors", "server_errors", "net_errors",
		"shed_rate", "error_rate", "throughput_rps",
		"p50_s", "p90_s", "p99_s", "p99_9_s", "max_s", "mean_s",
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, run := range report.Runs {
		kinds := make([]string, 0, len(run.Ops))
		for kind := range run.Ops {
			kinds = append(kinds, kind)
		}
		sort.Strings(kinds)
		for _, kind := range kinds {
			op := run.Ops[kind]
			row := []string{
				run.Workload, kind,
				strconv.FormatUint(op.Requests, 10),
				strconv.FormatUint(op.OK, 10),
				strconv.FormatUint(op.Shed, 10),
				strconv.FormatUint(op.Deadline, 10),
				strconv.FormatUint(op.ClientErrors, 10),
				strconv.FormatUint(op.ServerErrors, 10),
				strconv.FormatUint(op.NetErrors, 10),
				formatRate(op.ShedRate),
				formatRate(op.ErrorRate),
				formatRate(op.Throughput),
				formatRate(op.Latency.P50),
				formatRate(op.Latency.P90),
				formatRate(op.Latency.P99),
				formatRate(op.Latency.P999),
				formatRate(op.Latency.Max),
				formatRate(op.Latency.Mean),
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

func formatRate(v float64) string { return strconv.FormatFloat(v, 'f', 6, 64) }
