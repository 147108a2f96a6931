package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
)

// Request shapes shared by every workload.
const (
	estimateReports = 40   // crowd reports per /v1/estimate
	reportNoise     = 0.15 // log-normal noise on reported speeds
	ingestBatch     = 150  // observations per /v1/observations batch
	ingestNoise     = 0.10 // log-normal noise on ingested speeds
	churnKMin       = 10   // /v1/seeds budgets are drawn from [churnKMin, churnKMax]:
	churnKMax       = 200  // 191 values against the server's 32-entry seed cache
)

// workload is one traffic mix: what the server is started with, what happens
// once after set-up, and what each connection sends.
type workload struct {
	name string
	// serverArgs are added to the server's default flags.
	serverArgs []string
	// seedK > 0 selects k seeds once after set-up; every estimate then
	// reports on exactly those roads.
	seedK int
	// rate is the send rate, requests per second, over the connections that
	// carry the mix.
	rate float64
	// ingestEvery > 0 makes every ingestEvery-th request of a connection an
	// observation batch; the rest are estimates.
	ingestEvery int
	// churn gives one connection to a closed loop of seeds requests, each
	// with a fresh budget k; the other carries the mix.
	churn bool
}

// workloads are the benchmark's traffic mixes; BENCHMARK.json and
// bench/README.md give the reason for each.
var workloads = []workload{
	{name: "adhoc-estimate", rate: 20},
	{name: "seeded-loop", seedK: 40, rate: 20},
	// 450 observations/s refill the 600-observation trigger well within one
	// rebuild, so rebuilds run back to back and every estimate contends
	// with one; a trigger near the per-rebuild inflow would leave gaps,
	// and the latency would depend on how many estimates fall in them.
	{name: "ingest-rebuild", serverArgs: []string{"-rebuild-min-obs", "600"}, rate: 12, ingestEvery: 4},
	// The estimate connection of seeds-churn is busy about 40% of the time
	// (about 32 ms of every 83), so a box that slows by a half builds no
	// backlog.
	{name: "seeds-churn", rate: 12, churn: true},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

type opKind int

const (
	opEstimate opKind = iota
	opIngest
	opSeeds
)

var opNames = [...]string{"estimate", "ingest", "seeds"}

func (k opKind) String() string { return opNames[k] }

// op is one generated request, with what its response is checked against.
type op struct {
	kind opKind
	path string
	body []byte // nil for GET
	// frame indexes the truth frame an estimate was generated from.
	frame int
	// n is the report count of an estimate, the batch size of an ingest and
	// the budget k of a seeds request.
	n int
}

// generator draws a workload's requests. It is read-only after
// construction, so workers share it and bring their own rng.
type generator struct {
	w     *workload
	fx    *fixture
	seeds []int // the selected seed set of a seedK workload
}

// next draws the seq-th request of a connection carrying the workload's mix.
func (g *generator) next(rng *rand.Rand, seq int) op {
	if g.w.ingestEvery > 0 && seq%g.w.ingestEvery == g.w.ingestEvery-1 {
		return g.ingestOp(rng)
	}
	return g.estimateOp(rng, seq)
}

// churnOp draws a seeds request with a budget from [churnKMin, churnKMax].
func (g *generator) churnOp(rng *rand.Rand) op {
	return seedsOp(churnKMin + rng.Intn(churnKMax-churnKMin+1))
}

func seedsOp(k int) op {
	return op{kind: opSeeds, path: "/v1/seeds?k=" + strconv.Itoa(k), n: k}
}

// estimateOp draws an estimate from the frames in turn, so every run scores
// the same mix of rush-hour frames and the seed moves the MAE only through
// the roads and the noise it draws.
func (g *generator) estimateOp(rng *rand.Rand, seq int) op {
	fi := seq % len(g.fx.Frames)
	f := &g.fx.Frames[fi]
	roads := g.seeds
	if roads == nil {
		// Without replacement: the server rejects duplicate roads.
		roads = rng.Perm(g.fx.Roads)[:estimateReports]
	}
	b := make([]byte, 0, 32*len(roads)+32)
	b = append(b, `{"slot":`...)
	b = strconv.AppendInt(b, int64(f.Slot), 10)
	b = append(b, `,"reports":[`...)
	for i, r := range roads {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"road":`...)
		b = strconv.AppendInt(b, int64(r), 10)
		b = append(b, `,"speed_mps":`...)
		b = strconv.AppendFloat(b, f.Truth[r]*math.Exp(rng.NormFloat64()*reportNoise), 'f', 4, 64)
		b = append(b, '}')
	}
	b = append(b, "]}"...)
	return op{kind: opEstimate, path: "/v1/estimate", body: b, frame: fi, n: len(roads)}
}

func (g *generator) ingestOp(rng *rand.Rand) op {
	f := &g.fx.IngestFrames[rng.Intn(len(g.fx.IngestFrames))]
	b := make([]byte, 0, 48*ingestBatch+32)
	b = append(b, `{"observations":[`...)
	for i := 0; i < ingestBatch; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		r := rng.Intn(g.fx.Roads)
		b = append(b, `{"road":`...)
		b = strconv.AppendInt(b, int64(r), 10)
		b = append(b, `,"slot":`...)
		b = strconv.AppendInt(b, int64(f.Slot), 10)
		b = append(b, `,"speed_mps":`...)
		b = strconv.AppendFloat(b, f.Truth[r]*math.Exp(rng.NormFloat64()*ingestNoise), 'f', 4, 64)
		b = append(b, '}')
	}
	b = append(b, "]}"...)
	return op{kind: opIngest, path: "/v1/observations", body: b, n: ingestBatch}
}
