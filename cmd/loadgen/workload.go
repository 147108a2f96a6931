package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"repro/internal/dataset"
	"repro/internal/roadnet"
)

// Workload is one parsed workload script: a weighted mix of operation kinds
// plus per-kind parameters. The zero value of each parameter block is filled
// with defaults by ParseScript, so scripts only state what they change.
type Workload struct {
	Name    string
	Weights map[string]int // op kind → relative weight; kinds: estimate, seeds, ingest

	Estimate EstimateParams
	Seeds    SeedsParams
	Ingest   IngestParams
	// Replay, when set, drives estimate operations from ground-truth frames
	// of the simulated hours window instead of the single post-history slot.
	Replay *ReplayParams
	// Skew, when set, concentrates ingest traffic on a hot slice of the
	// road-ID space (road IDs are spatially ordered in the grid datasets, so
	// a contiguous slice approximates one district). Estimate seeds keep
	// sampling the whole network.
	Skew *SkewParams
}

// EstimateParams shapes POST /v1/estimate requests.
type EstimateParams struct {
	Reports int     // seed reports per request
	Noise   float64 // multiplicative log-normal noise on reported speeds
}

// SeedsParams shapes GET /v1/seeds requests: each request draws k uniformly
// from [KMin, KMax], churning the server's per-(k, version) seed cache.
type SeedsParams struct {
	KMin, KMax int
}

// IngestParams shapes POST /v1/observations requests.
type IngestParams struct {
	Batch int     // observations per batch
	Noise float64 // multiplicative log-normal noise on observed speeds
}

// ReplayParams selects the simulated rush-hour window whose ground-truth
// frames drive estimate requests.
type ReplayParams struct {
	HourFrom, HourTo int // half-open local-hour window [from, to)
}

// SkewParams shapes the hot-slice bias of ingest road draws.
type SkewParams struct {
	HotLoPct, HotHiPct int     // hot slice of road-ID space, in percent [lo, hi)
	Frac               float64 // probability an ingest observation lands in the hot slice
}

// Built-in workload scripts, in the same line format -script files use.
const (
	scriptEstimateHeavy = `# Estimation-dominated serving mix: the paper's real-time loop.
mix estimate=90 seeds=10
estimate reports=40 noise=0.15
seeds k=10..40
`
	scriptIngestHeavy = `# Crowd-report firehose with background estimate traffic.
mix ingest=70 estimate=30
ingest batch=150 noise=0.10
estimate reports=25 noise=0.15
`
	scriptSeedsChurn = `# Seed-budget scan: every new k forces a fresh seed selection.
mix seeds=80 estimate=20
seeds k=10..60
estimate reports=25 noise=0.15
`
	scriptRushHour = `# Morning-peak replay: estimates driven by simulated 7-10am truth frames.
mix estimate=100
estimate reports=60 noise=0.05
replay hours=7..10
`
	scriptLocalizedIngest = `# Hot-district ingest with network-wide estimate seeds: most observations
# land on one tenth of the city, the localized delta incremental rebuilds
# are built for.
mix ingest=60 estimate=40
ingest batch=120 noise=0.10
skew hot=0..10 frac=0.9
estimate reports=40 noise=0.15
`
)

// builtinScripts maps -workload names to their scripts.
var builtinScripts = map[string]string{
	"estimate-heavy":   scriptEstimateHeavy,
	"ingest-heavy":     scriptIngestHeavy,
	"seeds-churn":      scriptSeedsChurn,
	"rush-hour":        scriptRushHour,
	"localized-ingest": scriptLocalizedIngest,
}

// workloadOrder is the -workload all execution order.
var workloadOrder = []string{"estimate-heavy", "ingest-heavy", "seeds-churn", "rush-hour", "localized-ingest"}

// ParseScript parses a workload script. The format is line-based: blank
// lines and #-comments are skipped, every other line is a directive followed
// by key=value fields. Directives: "mix" (op-kind weights), "estimate",
// "seeds", "ingest" (per-kind parameters) and "replay" (rush-hour frame
// source). Ranges are written lo..hi.
func ParseScript(name, src string) (*Workload, error) {
	w := &Workload{
		Name:     name,
		Weights:  map[string]int{},
		Estimate: EstimateParams{Reports: 30, Noise: 0.10},
		Seeds:    SeedsParams{KMin: 10, KMax: 40},
		Ingest:   IngestParams{Batch: 100, Noise: 0.10},
	}
	for ln, line := range strings.Split(src, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		directive, kvs := fields[0], fields[1:]
		pairs, err := parsePairs(kvs)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %v", name, ln+1, err)
		}
		switch directive {
		case "mix":
			for k, v := range pairs {
				switch k {
				case "estimate", "seeds", "ingest":
				default:
					return nil, fmt.Errorf("%s:%d: unknown op kind %q in mix", name, ln+1, k)
				}
				weight, err := strconv.Atoi(v)
				if err != nil || weight < 0 {
					return nil, fmt.Errorf("%s:%d: mix weight %s=%q must be a non-negative integer", name, ln+1, k, v)
				}
				w.Weights[k] = weight
			}
		case "estimate":
			if err := assign(pairs, map[string]any{
				"reports": &w.Estimate.Reports,
				"noise":   &w.Estimate.Noise,
			}); err != nil {
				return nil, fmt.Errorf("%s:%d: %v", name, ln+1, err)
			}
			if w.Estimate.Noise < 0 {
				return nil, fmt.Errorf("%s:%d: estimate noise=%g must be ≥ 0", name, ln+1, w.Estimate.Noise)
			}
		case "seeds":
			if err := assign(pairs, map[string]any{
				"k": rangeTarget{&w.Seeds.KMin, &w.Seeds.KMax},
			}); err != nil {
				return nil, fmt.Errorf("%s:%d: %v", name, ln+1, err)
			}
		case "ingest":
			if err := assign(pairs, map[string]any{
				"batch": &w.Ingest.Batch,
				"noise": &w.Ingest.Noise,
			}); err != nil {
				return nil, fmt.Errorf("%s:%d: %v", name, ln+1, err)
			}
			if w.Ingest.Noise < 0 {
				return nil, fmt.Errorf("%s:%d: ingest noise=%g must be ≥ 0", name, ln+1, w.Ingest.Noise)
			}
		case "replay":
			rp := &ReplayParams{}
			if err := assign(pairs, map[string]any{
				"hours": rangeTarget{&rp.HourFrom, &rp.HourTo},
			}); err != nil {
				return nil, fmt.Errorf("%s:%d: %v", name, ln+1, err)
			}
			if rp.HourFrom < 0 || rp.HourTo > 24 || rp.HourFrom >= rp.HourTo {
				return nil, fmt.Errorf("%s:%d: replay hours=%d..%d must satisfy 0 ≤ from < to ≤ 24",
					name, ln+1, rp.HourFrom, rp.HourTo)
			}
			w.Replay = rp
		case "skew":
			sp := &SkewParams{Frac: 0.9}
			if err := assign(pairs, map[string]any{
				"hot":  rangeTarget{&sp.HotLoPct, &sp.HotHiPct},
				"frac": &sp.Frac,
			}); err != nil {
				return nil, fmt.Errorf("%s:%d: %v", name, ln+1, err)
			}
			if sp.HotLoPct < 0 || sp.HotHiPct > 100 || sp.HotLoPct >= sp.HotHiPct {
				return nil, fmt.Errorf("%s:%d: skew hot=%d..%d must satisfy 0 ≤ lo < hi ≤ 100",
					name, ln+1, sp.HotLoPct, sp.HotHiPct)
			}
			// Written as a negated conjunction so NaN fails too: with the
			// usual `frac <= 0 || frac > 1` form every comparison against
			// NaN is false and frac=NaN sails through to poison rng draws.
			if !(sp.Frac > 0 && sp.Frac <= 1) {
				return nil, fmt.Errorf("%s:%d: skew frac=%g must be in (0, 1]", name, ln+1, sp.Frac)
			}
			w.Skew = sp
		default:
			return nil, fmt.Errorf("%s:%d: unknown directive %q", name, ln+1, directive)
		}
	}
	total := 0
	for _, weight := range w.Weights {
		total += weight
	}
	if total == 0 {
		return nil, fmt.Errorf("%s: no positive op weights (add a mix line)", name)
	}
	if w.Estimate.Reports < 1 || w.Ingest.Batch < 1 {
		return nil, fmt.Errorf("%s: reports and batch must be ≥ 1", name)
	}
	if w.Seeds.KMin < 1 || w.Seeds.KMax < w.Seeds.KMin {
		return nil, fmt.Errorf("%s: seeds k=%d..%d must satisfy 1 ≤ lo ≤ hi", name, w.Seeds.KMin, w.Seeds.KMax)
	}
	return w, nil
}

// rangeTarget receives a lo..hi integer range during assign.
type rangeTarget struct{ lo, hi *int }

// parsePairs splits key=value fields into a map.
func parsePairs(fields []string) (map[string]string, error) {
	pairs := make(map[string]string, len(fields))
	for _, f := range fields {
		k, v, ok := strings.Cut(f, "=")
		if !ok || k == "" || v == "" {
			return nil, fmt.Errorf("field %q is not key=value", f)
		}
		if _, dup := pairs[k]; dup {
			return nil, fmt.Errorf("duplicate field %q", k)
		}
		pairs[k] = v
	}
	return pairs, nil
}

// assign moves parsed pairs into typed targets (ints, floats, lo..hi ranges),
// rejecting unknown keys so typos fail loudly instead of silently keeping a
// default.
func assign(pairs map[string]string, targets map[string]any) error {
	for k, v := range pairs {
		target, ok := targets[k]
		if !ok {
			return fmt.Errorf("unknown field %q", k)
		}
		switch t := target.(type) {
		case *int:
			n, err := strconv.Atoi(v)
			if err != nil {
				return fmt.Errorf("field %s=%q: not an integer", k, v)
			}
			*t = n
		case *float64:
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return fmt.Errorf("field %s=%q: not a number", k, v)
			}
			// ParseFloat happily produces NaN and ±Inf, which every
			// downstream range check written with < or > silently accepts.
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return fmt.Errorf("field %s=%q: must be a finite number", k, v)
			}
			*t = f
		case rangeTarget:
			lo, hi, ok := strings.Cut(v, "..")
			if !ok {
				return fmt.Errorf("field %s=%q: want lo..hi", k, v)
			}
			l, err1 := strconv.Atoi(lo)
			h, err2 := strconv.Atoi(hi)
			if err1 != nil || err2 != nil {
				return fmt.Errorf("field %s=%q: want integer lo..hi", k, v)
			}
			// Reject inverted ranges here so the error carries the script
			// line, instead of surfacing (or not) in end-of-parse checks.
			if l > h {
				return fmt.Errorf("field %s=%d..%d: range lo..hi needs lo ≤ hi", k, l, h)
			}
			*t.lo, *t.hi = l, h
		default:
			panic(fmt.Sprintf("loadgen: unhandled assign target %T", target))
		}
	}
	return nil
}

// frame is one ground-truth snapshot requests are generated from.
type frame struct {
	slot   int
	speeds []float64
}

// generator produces request payloads for one workload from precomputed
// truth frames. It is shared read-only across workers; all per-worker
// randomness comes from the worker's own rng.
type generator struct {
	workload *Workload
	frames   []frame
	kinds    []string // op kinds repeated by weight, drawn uniformly
	numRoads int
}

// newGenerator precomputes the generator for a workload, stepping the
// dataset's simulator to capture replay frames when the script asks for
// them. Stepping mutates the dataset, so generators must be built
// sequentially, before workers start.
func newGenerator(w *Workload, ds *dataset.Dataset) (*generator, error) {
	g := &generator{workload: w, numRoads: ds.Net.NumRoads()}
	for kind, weight := range w.Weights {
		for i := 0; i < weight; i++ {
			g.kinds = append(g.kinds, kind)
		}
	}
	// Deterministic kind order: map iteration above is randomized, and the
	// draw below indexes into this slice.
	sort.Strings(g.kinds)

	if w.Replay == nil {
		g.frames = []frame{snapshotFrame(ds)}
		return g, nil
	}
	// Walk the simulation forward until the replay window has been covered:
	// the dataset sits right after its history period, so the window is at
	// most one simulated day away.
	cal := ds.Cal
	for stepped := 0; stepped <= cal.SlotsPerDay(); stepped++ {
		hour := cal.HourOfSlot(ds.Slot())
		if hour >= w.Replay.HourFrom && hour < w.Replay.HourTo {
			g.frames = append(g.frames, snapshotFrame(ds))
		} else if len(g.frames) > 0 {
			break // walked out the far edge of the window
		}
		ds.NextTruth()
	}
	if len(g.frames) == 0 {
		return nil, fmt.Errorf("workload %s: no slots in replay window %d..%d within one simulated day",
			w.Name, w.Replay.HourFrom, w.Replay.HourTo)
	}
	return g, nil
}

func snapshotFrame(ds *dataset.Dataset) frame {
	speeds := make([]float64, len(ds.Truth()))
	copy(speeds, ds.Truth())
	return frame{slot: ds.Slot(), speeds: speeds}
}

// op is one generated request.
type op struct {
	kind string
	path string // URL path with query
	body string // JSON body; empty means GET
}

// next draws one operation from the workload mix.
func (g *generator) next(rng *rand.Rand) op {
	kind := g.kinds[rng.Intn(len(g.kinds))]
	switch kind {
	case "estimate":
		return g.estimateOp(rng)
	case "seeds":
		k := g.workload.Seeds.KMin + rng.Intn(g.workload.Seeds.KMax-g.workload.Seeds.KMin+1)
		if k > g.numRoads {
			k = g.numRoads
		}
		return op{kind: "seeds", path: fmt.Sprintf("/v1/seeds?k=%d", k)}
	case "ingest":
		return g.ingestOp(rng)
	}
	panic("loadgen: unreachable op kind " + kind)
}

func (g *generator) estimateOp(rng *rand.Rand) op {
	f := g.frames[rng.Intn(len(g.frames))]
	n := g.workload.Estimate.Reports
	if n > g.numRoads {
		n = g.numRoads
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, `{"slot":%d,"reports":[`, f.slot)
	// Sample without replacement: the server 400s duplicate roads.
	for i, road := range rng.Perm(g.numRoads)[:n] {
		if i > 0 {
			sb.WriteByte(',')
		}
		speed := f.speeds[road] * noiseFactor(rng, g.workload.Estimate.Noise)
		fmt.Fprintf(&sb, `{"road":%d,"speed_mps":%s}`, road, formatSpeed(speed))
	}
	sb.WriteString("]}")
	return op{kind: "estimate", path: "/v1/estimate", body: sb.String()}
}

func (g *generator) ingestOp(rng *rand.Rand) op {
	f := g.frames[rng.Intn(len(g.frames))]
	var sb strings.Builder
	sb.WriteString(`{"observations":[`)
	for i := 0; i < g.workload.Ingest.Batch; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		road := g.ingestRoad(rng)
		speed := f.speeds[road] * noiseFactor(rng, g.workload.Ingest.Noise)
		fmt.Fprintf(&sb, `{"road":%d,"slot":%d,"speed_mps":%s}`, road, f.slot, formatSpeed(speed))
	}
	sb.WriteString("]}")
	return op{kind: "ingest", path: "/v1/observations", body: sb.String()}
}

// ingestRoad draws one observation's road, honouring the workload's hot-slice
// skew when one is configured. The hot slice is computed in road-ID space;
// with fewer than ~100 roads the slice still covers at least one road.
func (g *generator) ingestRoad(rng *rand.Rand) roadnet.RoadID {
	sk := g.workload.Skew
	if sk == nil || rng.Float64() >= sk.Frac {
		return roadnet.RoadID(rng.Intn(g.numRoads))
	}
	lo := g.numRoads * sk.HotLoPct / 100
	hi := g.numRoads * sk.HotHiPct / 100
	if hi <= lo {
		hi = lo + 1
	}
	return roadnet.RoadID(lo + rng.Intn(hi-lo))
}

// noiseFactor returns a multiplicative log-normal factor exp(σ·N(0,1)).
func noiseFactor(rng *rand.Rand, sigma float64) float64 {
	if sigma <= 0 {
		return 1
	}
	return math.Exp(rng.NormFloat64() * sigma)
}

func formatSpeed(v float64) string {
	return strconv.FormatFloat(v, 'f', 4, 64)
}
