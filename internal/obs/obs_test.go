package obs

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	c := r.Counter("trendspeed_test_total", "help")
	c.Inc()
	c.Add(2.5)
	c.Add(-1)         // ignored: counters are monotonic
	c.Add(math.NaN()) // ignored
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %v, want 3.5", got)
	}
	// Same name+labels returns the same child.
	if r.Counter("trendspeed_test_total", "help") != c {
		t.Fatal("get-or-create returned a different counter")
	}
}

func TestGaugeBasics(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	g := r.Gauge("trendspeed_test_gauge", "help")
	g.Set(10)
	g.Inc()
	g.Dec()
	g.Add(-2.5)
	if got := g.Value(); got != 7.5 {
		t.Fatalf("gauge = %v, want 7.5", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	h := r.Histogram("trendspeed_test_seconds", "help", []float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.5, 3, 10} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 16 {
		t.Fatalf("sum = %v, want 16", h.Sum())
	}
	// An observation exactly on a bound lands in that bucket (le semantics).
	text := r.Render()
	for _, want := range []string{
		`trendspeed_test_seconds_bucket{le="1"} 2`,
		`trendspeed_test_seconds_bucket{le="2"} 3`,
		`trendspeed_test_seconds_bucket{le="5"} 4`,
		`trendspeed_test_seconds_bucket{le="+Inf"} 5`,
		`trendspeed_test_seconds_count 5`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

// TestExpositionGolden locks the exact text exposition rendering, including
// HELP/TYPE lines, label ordering, label escaping and histogram expansion.
func TestExpositionGolden(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	r.Counter("trendspeed_http_requests_total", "Total HTTP requests.", "route", "/v1/estimate", "class", "2xx").Add(3)
	r.Counter("trendspeed_http_requests_total", "Total HTTP requests.", "route", "/v1/estimate", "class", "4xx").Inc()
	r.Gauge("trendspeed_http_in_flight", "In-flight HTTP requests.").Set(2)
	h := r.Histogram("trendspeed_stage_seconds", "Stage durations.", []float64{0.1, 1}, "stage", `tricky"\`+"\n")
	h.Observe(0.05)
	h.Observe(0.5)

	want := `# HELP trendspeed_http_in_flight In-flight HTTP requests.
# TYPE trendspeed_http_in_flight gauge
trendspeed_http_in_flight 2
# HELP trendspeed_http_requests_total Total HTTP requests.
# TYPE trendspeed_http_requests_total counter
trendspeed_http_requests_total{class="2xx",route="/v1/estimate"} 3
trendspeed_http_requests_total{class="4xx",route="/v1/estimate"} 1
# HELP trendspeed_stage_seconds Stage durations.
# TYPE trendspeed_stage_seconds histogram
trendspeed_stage_seconds_bucket{stage="tricky\"\\\n",le="0.1"} 1
trendspeed_stage_seconds_bucket{stage="tricky\"\\\n",le="1"} 2
trendspeed_stage_seconds_bucket{stage="tricky\"\\\n",le="+Inf"} 2
trendspeed_stage_seconds_sum{stage="tricky\"\\\n"} 0.55
trendspeed_stage_seconds_count{stage="tricky\"\\\n"} 2
`
	if got := r.Render(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestInvalidNamesPanic(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	mustPanic("bad metric name", func() { r.Counter("9bad", "") })
	mustPanic("odd labels", func() { r.Counter("trendspeed_ok_total", "", "route") })
	mustPanic("bad label name", func() { r.Gauge("trendspeed_ok", "", "bad-label", "v") })
	r.Counter("trendspeed_clash", "")
	mustPanic("kind clash", func() { r.Gauge("trendspeed_clash", "") })
}

func TestSnapshot(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	r.Counter("trendspeed_runs_total", "Runs.").Add(4)
	r.Histogram("trendspeed_lat_seconds", "Latency.", []float64{1}).Observe(0.5)
	snap := r.Snapshot()
	c, ok := snap["trendspeed_runs_total"]
	if !ok || c.Type != "counter" || len(c.Metrics) != 1 || c.Metrics[0].Value == nil || *c.Metrics[0].Value != 4 {
		t.Fatalf("counter snapshot = %+v", c)
	}
	h, ok := snap["trendspeed_lat_seconds"]
	if !ok || h.Type != "histogram" || len(h.Metrics) != 1 {
		t.Fatalf("histogram snapshot = %+v", h)
	}
	m := h.Metrics[0]
	if m.Count == nil || *m.Count != 1 || m.Sum == nil || *m.Sum != 0.5 || m.Buckets["1"] != 1 || m.Buckets["+Inf"] != 1 {
		t.Fatalf("histogram metrics = %+v", m)
	}
}

// TestConcurrency is the -race smoke test: hammer one registry from many
// goroutines through every metric type plus the renderer.
func TestConcurrency(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	tr := newTracer(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Counter("trendspeed_conc_total", "", "worker", string(rune('a'+w))).Inc()
				r.Gauge("trendspeed_conc_gauge", "").Add(1)
				r.Histogram("trendspeed_conc_seconds", "", []float64{0.5, 1}).Observe(float64(i%3) / 2)
				_, _ = tr.span(t.Context(), "conc", func(context.Context) error { return nil })
				if i%100 == 0 {
					_ = r.Render()
					_ = tr.Spans()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("trendspeed_conc_total", "", "worker", "a").Value(); got != 500 {
		t.Errorf("worker a count = %v, want 500", got)
	}
	if got := r.Gauge("trendspeed_conc_gauge", "").Value(); got != 4000 {
		t.Errorf("gauge = %v, want 4000", got)
	}
	if got := r.Histogram("trendspeed_conc_seconds", "", nil).Count(); got != 4000 {
		t.Errorf("histogram count = %d, want 4000", got)
	}
}
