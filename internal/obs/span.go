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
// at /debug/trace. Span durations reach /metrics only through the callers
// that time them, each into its own family (for example
// trendspeed_core_stage_duration_seconds and
// trendspeed_core_estimate_duration_hdr_seconds).
type Tracer struct {
	// started counts StartSpan calls; ended mirrors the ring's total under
	// its own atomic so leak checks (started == ended once work drains) do
	// not contend on mu.
	started atomic.Uint64
	ended   atomic.Uint64

	mu    sync.Mutex
	ring  []SpanRecord
	next  int
	total uint64
}

// NewTracer returns a tracer keeping the last capacity spans.
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{ring: make([]SpanRecord, 0, capacity)}
}

var defaultTracer = NewTracer(256)

// DefaultTracer returns the process-wide tracer used by StartSpan.
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
// After all in-flight work has drained the two must agree; cancellation
// tests use the pair to assert no code path abandoned a span without
// ending it. started ≥ ended always holds; the difference is the number of
// spans currently open (or leaked).
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

// Span is an in-flight timed stage; call End exactly once.
type Span struct {
	tracer *Tracer
	name   string
	reqID  string
	start  time.Time
	ended  bool
}

// spanKey carries the enclosing span through a context for name nesting.
type spanKey struct{}

// StartSpan begins a named stage on the default tracer. If ctx already
// carries a span, the new span's name is prefixed with its parent's
// ("core.new/corr_build"), so nested stages stay attributable. The returned
// context carries the new span.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	return defaultTracer.StartSpan(ctx, name)
}

// StartSpan begins a named stage on this tracer; see the package-level
// StartSpan.
func (t *Tracer) StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if parent, ok := ctx.Value(spanKey{}).(*Span); ok && parent != nil {
		name = parent.name + "/" + name
	}
	t.started.Add(1)
	s := &Span{tracer: t, name: name, reqID: RequestIDFrom(ctx), start: time.Now()}
	return context.WithValue(ctx, spanKey{}, s), s
}

// Name returns the (possibly parent-prefixed) span name.
func (s *Span) Name() string { return s.name }

// End finishes the span, records it and returns its duration. Calling End
// more than once records nothing and returns the elapsed time since start.
func (s *Span) End() time.Duration {
	d := time.Since(s.start)
	if s.ended {
		return d
	}
	s.ended = true
	s.tracer.record(SpanRecord{Name: s.name, Start: s.start, DurationSeconds: d.Seconds(), RequestID: s.reqID})
	return d
}
