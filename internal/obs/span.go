package obs

import (
	"context"
	"encoding/json"
	"sync"
	"sync/atomic"
	"time"
)

// SpanRecord is one finished span: a named stage with wall-clock timing.
// RequestID is set when the span was started under a request context (see
// WithRequestID), correlating the span with structured log lines and the
// X-Request-Id response header of the same request.
type SpanRecord struct {
	Name            string    `json:"name"`
	Start           time.Time `json:"start"`
	DurationSeconds float64   `json:"duration_seconds"`
	RequestID       string    `json:"request_id,omitempty"`
}

// Tracer records the last-N finished spans in a ring buffer, dumped as JSON
// at /debug/trace. Spans are started only through Time, which ends each one
// whether its work returns or panics. Span durations reach /metrics only
// through the callers that time them, each into its own family (for example
// trendspeed_core_stage_duration_seconds and
// trendspeed_core_estimate_duration_hdr_seconds).
type Tracer struct {
	// started counts spans begun; ended mirrors the ring's total under its
	// own atomic so balance checks (started == ended once work drains) do
	// not contend on mu.
	started atomic.Uint64
	ended   atomic.Uint64

	mu    sync.Mutex
	ring  []SpanRecord
	next  int
	total uint64
}

// newTracer returns a tracer keeping the last capacity spans.
func newTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{ring: make([]SpanRecord, 0, capacity)}
}

var defaultTracer = newTracer(256)

// DefaultTracer returns the process-wide tracer that Time records on.
func DefaultTracer() *Tracer { return defaultTracer }

// record stores one finished span in the ring.
func (t *Tracer) record(rec SpanRecord) {
	t.mu.Lock()
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, rec)
	} else {
		t.ring[t.next] = rec
	}
	t.next = (t.next + 1) % cap(t.ring)
	t.total++
	t.mu.Unlock()
	t.ended.Add(1)
}

// Counts returns how many spans were started and ended on this tracer.
// started ≥ ended always holds, and the difference is the number of spans
// still running. Time ends every span it starts, so once in-flight work has
// drained, returned or panicked, the two agree; tests use the pair to
// assert that.
func (t *Tracer) Counts() (started, ended uint64) {
	return t.started.Load(), t.ended.Load()
}

// Spans returns the retained spans, oldest first.
func (t *Tracer) Spans() []SpanRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanRecord, 0, len(t.ring))
	if len(t.ring) < cap(t.ring) {
		return append(out, t.ring...)
	}
	out = append(out, t.ring[t.next:]...)
	return append(out, t.ring[:t.next]...)
}

// SpansJSON renders the retained spans (oldest first) plus the total span
// count as a JSON document for the /debug/trace endpoint.
func (t *Tracer) SpansJSON() ([]byte, error) {
	spans := t.Spans()
	t.mu.Lock()
	total := t.total
	t.mu.Unlock()
	return json.MarshalIndent(struct {
		TotalSpans uint64       `json:"total_spans"`
		Spans      []SpanRecord `json:"spans"`
	}{TotalSpans: total, Spans: spans}, "", "  ")
}

// spanKey carries the enclosing span's name through a context for name
// nesting.
type spanKey struct{}

// Time runs fn as a named span on the default tracer and returns the span's
// duration with fn's error. If ctx already carries a span, the new span's
// name is prefixed with its parent's ("core.new/corr_build"), so nested
// stages stay attributable; fn receives a context carrying the new span, and
// the span carries ctx's request ID. The span is recorded when fn returns
// and also when it panics, so no span outlives its work.
func Time(ctx context.Context, name string, fn func(context.Context) error) (time.Duration, error) {
	return defaultTracer.span(ctx, name, fn)
}

// span is Time on this tracer.
func (t *Tracer) span(ctx context.Context, name string, fn func(context.Context) error) (d time.Duration, err error) {
	if parent, ok := ctx.Value(spanKey{}).(string); ok {
		name = parent + "/" + name
	}
	t.started.Add(1)
	rec := SpanRecord{Name: name, Start: time.Now(), RequestID: RequestIDFrom(ctx)}
	defer func() {
		d = time.Since(rec.Start)
		rec.DurationSeconds = d.Seconds()
		t.record(rec)
	}()
	return 0, fn(context.WithValue(ctx, spanKey{}, name)) // the deferred record sets d
}
