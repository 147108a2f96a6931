// Package benchtrace is the record format the traced server keeps in memory
// and hands to tsbench, the benchmark: one Request per traced HTTP request,
// with the time spent in each layer it crossed, plus the process counters
// tsbench differences across its measured window.
package benchtrace

import "repro/internal/obs"

// SnapshotPath is the traced server's route that returns a Snapshot and
// forgets the requests it reported.
const SnapshotPath = "/bench/snapshot"

// UntracedHeader set to "off" on a request makes the traced server skip all
// of its recording for it, so tsbench can measure what recording costs.
const UntracedHeader = "X-Bench-Trace"

// Request is one traced request. Durations are in nanoseconds; a layer the
// request did not cross reads 0.
type Request struct {
	ID string `json:"id"`
	// Handler is the time inside the api.Server handler: routing,
	// middleware, decode, admission, the core call and encode.
	Handler int64 `json:"handler_ns"`
	// Round, PrePass, Trend and Speed come from the core's own spans
	// (core.estimate and its phases) for this request ID.
	Round   int64 `json:"round_ns"`
	PrePass int64 `json:"pre_pass_ns"`
	Trend   int64 `json:"trend_ns"`
	Speed   int64 `json:"speed_ns"`
	// Infer is the time inside mrf.Engine.Infer, summed over Infers calls.
	Infer  int64 `json:"infer_ns"`
	Infers int   `json:"infers"`
	// Select is the time inside seedsel.Selector.SelectCtx; Specialize the
	// core's seed_specialize stage span.
	Select     int64 `json:"select_ns"`
	Specialize int64 `json:"specialize_ns"`
}

// Snapshot is the traced server's state when tsbench asked for it.
type Snapshot struct {
	// Requests are the traced requests finished since the last snapshot.
	Requests []Request `json:"requests"`
	// Builds is the build time, in nanoseconds, of every model version the
	// server has published: the initial model, then each rebuild.
	Builds []int64 `json:"builds_ns"`
	// TotalAlloc and NumGC are the process's runtime.MemStats counters.
	TotalAlloc uint64 `json:"total_alloc"`
	NumGC      uint32 `json:"num_gc"`
	// Metrics is the obs default registry.
	Metrics map[string]obs.FamilySnapshot `json:"metrics"`
}
