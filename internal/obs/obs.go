// Package obs is the reproduction's zero-dependency observability layer: a
// concurrent metrics registry (counters, gauges, fixed-bucket histograms)
// that renders the Prometheus text exposition format v0.0.4, plus a
// lightweight span tracer (see span.go) for per-stage wall-time.
//
// The paper's headline claim is efficiency, so every hot path — loopy-BP
// trend inference, lazy-greedy seed selection, HLM solves, HTTP serving —
// reports into the package-level Default registry, which internal/api
// exposes at GET /metrics and bench/tracedserver snapshots into its JSON
// report. Metric names follow trendspeed_<subsystem>_<name>_<unit>.
//
// The API is modelled on the Prometheus client but kept deliberately small:
// get-or-create constructors on the registry, atomic float updates, and
// panics on programmer error (mismatched types, odd label pairs) exactly
// like the real client library.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// atomicFloat is a float64 updated with compare-and-swap on its bit pattern;
// the standard lock-free representation for metric values.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }

func (f *atomicFloat) Store(v float64) { f.bits.Store(math.Float64bits(v)) }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		if f.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Counter is a monotonically non-decreasing value. Negative Adds are
// ignored rather than corrupting the monotonicity contract.
type Counter struct {
	v atomicFloat
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter; negative deltas are dropped.
func (c *Counter) Add(v float64) {
	if v < 0 || math.IsNaN(v) {
		return
	}
	c.v.Add(v)
}

// Value returns the current count.
func (c *Counter) Value() float64 { return c.v.Load() }

// Gauge is an arbitrary instantaneous value.
type Gauge struct {
	v atomicFloat
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.v.Store(v) }

// Add shifts the value by a (possibly negative) delta.
func (g *Gauge) Add(v float64) { g.v.Add(v) }

// Inc adds 1.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v.Load() }

// Histogram counts observations into fixed cumulative buckets. Buckets are
// the upper bounds passed at creation; an implicit +Inf bucket is appended.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1, non-cumulative per bucket
	sum    atomicFloat
	count  atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.Load() }

// DefBuckets are general-purpose latency buckets in seconds (the Prometheus
// client defaults).
var DefBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// LinearBuckets returns count buckets of the given width starting at start.
func LinearBuckets(start, width float64, count int) []float64 {
	out := make([]float64, count)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

// ExponentialBuckets returns count buckets growing geometrically by factor
// from start.
func ExponentialBuckets(start, factor float64, count int) []float64 {
	out := make([]float64, count)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// metricKind discriminates family types in the registry.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
	kindHDR
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHDR:
		// HDR histograms expose precomputed quantiles, which is exactly what
		// the Prometheus summary type models.
		return "summary"
	default:
		return "histogram"
	}
}

// family is one metric name: a type, help text and one child per label set.
type family struct {
	name    string
	help    string
	kind    metricKind
	bounds  []float64 // histograms only
	mu      sync.Mutex
	childOf map[string]any      // label signature → *Counter | *Gauge | *Histogram
	labels  map[string][]string // label signature → flat k,v pairs
}

// Registry is a concurrent collection of metric families. The zero value is
// not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry every instrumented subsystem
// reports into.
func Default() *Registry { return defaultRegistry }

// validName matches the Prometheus metric/label name grammar.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || r == '_' || r == ':'
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// labelKey produces the canonical child key for a flat k,v pair list and
// validates the label names; pairs are sorted by key so the same label set
// always maps to the same child.
func labelKey(labels []string) (string, []string) {
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label pair list %q", labels))
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		if !validName(labels[i]) || strings.HasPrefix(labels[i], "__") {
			panic(fmt.Sprintf("obs: invalid label name %q", labels[i]))
		}
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var key strings.Builder
	flat := make([]string, 0, len(labels))
	for _, p := range pairs {
		key.WriteString(p.k)
		key.WriteByte('\x00')
		key.WriteString(p.v)
		key.WriteByte('\x00')
		flat = append(flat, p.k, p.v)
	}
	return key.String(), flat
}

// getFamily returns (creating if needed) the family for name, panicking on a
// kind clash — two subsystems registering one name as different types is a
// programming error worth failing loudly on.
func (r *Registry) getFamily(name, help string, kind metricKind, bounds []float64) *family {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{
			name: name, help: help, kind: kind, bounds: bounds,
			childOf: map[string]any{}, labels: map[string][]string{},
		}
		r.families[name] = f
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.kind, kind))
	}
	return f
}

// child returns the metric for one label set, creating it with mk on first use.
func (f *family) child(labels []string, mk func() any) any {
	key, flat := labelKey(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.childOf[key]
	if !ok {
		c = mk()
		f.childOf[key] = c
		f.labels[key] = flat
	}
	return c
}

// Counter returns the counter with the given name and label pairs
// (key1, val1, key2, val2, …), creating it on first use.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	f := r.getFamily(name, help, kindCounter, nil)
	return f.child(labels, func() any { return &Counter{} }).(*Counter)
}

// Gauge returns the gauge with the given name and label pairs.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	f := r.getFamily(name, help, kindGauge, nil)
	return f.child(labels, func() any { return &Gauge{} }).(*Gauge)
}

// Histogram returns the histogram with the given name, buckets and label
// pairs. Buckets are fixed at family creation; later calls may pass nil.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	bounds := append([]float64(nil), buckets...)
	sort.Float64s(bounds)
	f := r.getFamily(name, help, kindHistogram, bounds)
	return f.child(labels, func() any {
		h := &Histogram{bounds: f.bounds}
		h.counts = make([]atomic.Uint64, len(f.bounds)+1)
		return h
	}).(*Histogram)
}

// HDRHistogram returns the log-bucketed histogram with the given name and
// label pairs, creating it on first use with the default latency shape
// (DefHDRMin..DefHDRMax at DefHDRGrowth, ~1% relative error). It renders as
// a Prometheus summary carrying the DefQuantiles; the raw buckets stay
// available through Snapshot on the returned handle.
func (r *Registry) HDRHistogram(name, help string, labels ...string) *HDRHistogram {
	f := r.getFamily(name, help, kindHDR, nil)
	return f.child(labels, func() any {
		return NewHDRHistogram(DefHDRMin, DefHDRMax, DefHDRGrowth)
	}).(*HDRHistogram)
}

// escapeLabel escapes a label value per the text exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// escapeHelp escapes HELP text per the text exposition format.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// formatValue renders a sample value the way Prometheus expects.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelString renders {k="v",…} from flat pairs plus optional extra pairs;
// empty label sets render as nothing.
func labelString(flat []string, extra ...string) string {
	all := append(append([]string(nil), flat...), extra...)
	if len(all) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < len(all); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, all[i], escapeLabel(all[i+1]))
	}
	b.WriteByte('}')
	return b.String()
}

// WriteTo renders the registry in Prometheus text exposition format v0.0.4,
// families and children in deterministic sorted order.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		f.mu.Lock()
		keys := make([]string, 0, len(f.childOf))
		for k := range f.childOf {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, k := range keys {
			flat := f.labels[k]
			switch m := f.childOf[k].(type) {
			case *Counter:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, labelString(flat), formatValue(m.Value()))
			case *Gauge:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, labelString(flat), formatValue(m.Value()))
			case *Histogram:
				var cum uint64
				for i, bound := range f.bounds {
					cum += m.counts[i].Load()
					fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, labelString(flat, "le", formatValue(bound)), cum)
				}
				cum += m.counts[len(f.bounds)].Load()
				fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, labelString(flat, "le", "+Inf"), cum)
				fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, labelString(flat), formatValue(m.Sum()))
				fmt.Fprintf(&b, "%s_count%s %d\n", f.name, labelString(flat), cum)
			case *HDRHistogram:
				snap := m.Snapshot()
				for _, q := range DefQuantiles {
					fmt.Fprintf(&b, "%s%s %s\n", f.name, labelString(flat, "quantile", formatValue(q)), formatValue(snap.Quantile(q)))
				}
				fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, labelString(flat), formatValue(snap.Sum))
				fmt.Fprintf(&b, "%s_count%s %d\n", f.name, labelString(flat), snap.Count())
			}
		}
		f.mu.Unlock()
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// Render returns the exposition text as a string (logging and tests).
func (r *Registry) Render() string {
	var b strings.Builder
	_, _ = r.WriteTo(&b)
	return b.String()
}

// SampleValue is one child's state in a Snapshot.
type SampleValue struct {
	Labels map[string]string `json:"labels,omitempty"`
	// Value is set for counters and gauges.
	Value *float64 `json:"value,omitempty"`
	// Sum, Count and Buckets are set for histograms; Buckets maps the upper
	// bound (as rendered in the le label) to the cumulative count.
	Sum     *float64          `json:"sum,omitempty"`
	Count   *uint64           `json:"count,omitempty"`
	Buckets map[string]uint64 `json:"buckets,omitempty"`
	// Quantiles is set for HDR histograms: the quantile (as rendered in the
	// quantile label) mapped to its value.
	Quantiles map[string]float64 `json:"quantiles,omitempty"`
}

// FamilySnapshot is one metric family's state in a Snapshot.
type FamilySnapshot struct {
	Type    string        `json:"type"`
	Help    string        `json:"help,omitempty"`
	Metrics []SampleValue `json:"metrics"`
}

// Snapshot captures the whole registry as plain data, for embedding in JSON
// reports (bench/tracedserver) and for tests.
func (r *Registry) Snapshot() map[string]FamilySnapshot {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()

	out := make(map[string]FamilySnapshot, len(fams))
	for _, f := range fams {
		f.mu.Lock()
		keys := make([]string, 0, len(f.childOf))
		for k := range f.childOf {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fs := FamilySnapshot{Type: f.kind.String(), Help: f.help}
		for _, k := range keys {
			flat := f.labels[k]
			sv := SampleValue{}
			if len(flat) > 0 {
				sv.Labels = make(map[string]string, len(flat)/2)
				for i := 0; i < len(flat); i += 2 {
					sv.Labels[flat[i]] = flat[i+1]
				}
			}
			switch m := f.childOf[k].(type) {
			case *Counter:
				v := m.Value()
				sv.Value = &v
			case *Gauge:
				v := m.Value()
				sv.Value = &v
			case *Histogram:
				sum, cnt := m.Sum(), uint64(0)
				sv.Buckets = make(map[string]uint64, len(f.bounds)+1)
				var cum uint64
				for i, bound := range f.bounds {
					cum += m.counts[i].Load()
					sv.Buckets[formatValue(bound)] = cum
				}
				cum += m.counts[len(f.bounds)].Load()
				sv.Buckets["+Inf"] = cum
				cnt = cum
				sv.Sum = &sum
				sv.Count = &cnt
			case *HDRHistogram:
				snap := m.Snapshot()
				sum, cnt := snap.Sum, snap.Count()
				sv.Quantiles = make(map[string]float64, len(DefQuantiles))
				for _, q := range DefQuantiles {
					sv.Quantiles[formatValue(q)] = snap.Quantile(q)
				}
				sv.Sum = &sum
				sv.Count = &cnt
			}
			fs.Metrics = append(fs.Metrics, sv)
		}
		f.mu.Unlock()
		out[f.name] = fs
	}
	return out
}
