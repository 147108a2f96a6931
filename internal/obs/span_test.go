package obs

import (
	"context"
	"encoding/json"
	"testing"
)

func TestSpanNesting(t *testing.T) {
	t.Parallel()
	tr := NewTracer(8)
	ctx, outer := tr.StartSpan(context.Background(), "core.new")
	_, inner := tr.StartSpan(ctx, "corr_build")
	if inner.Name() != "core.new/corr_build" {
		t.Fatalf("nested name = %q", inner.Name())
	}
	inner.End()
	outer.End()
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans", len(spans))
	}
	// Inner ends first, so it is the older record.
	if spans[0].Name != "core.new/corr_build" || spans[1].Name != "core.new" {
		t.Errorf("span order = %q, %q", spans[0].Name, spans[1].Name)
	}
	for _, s := range spans {
		if s.DurationSeconds < 0 {
			t.Errorf("negative duration %v", s.DurationSeconds)
		}
	}
}

func TestSpanDoubleEnd(t *testing.T) {
	t.Parallel()
	tr := NewTracer(8)
	_, sp := tr.StartSpan(context.Background(), "once")
	sp.End()
	sp.End()
	if got := len(tr.Spans()); got != 1 {
		t.Fatalf("double End recorded %d spans", got)
	}
}

func TestSpanRingEviction(t *testing.T) {
	t.Parallel()
	tr := NewTracer(3)
	names := []string{"a", "b", "c", "d", "e"}
	for _, n := range names {
		_, sp := tr.StartSpan(context.Background(), n)
		sp.End()
	}
	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("ring kept %d spans, want 3", len(spans))
	}
	for i, want := range []string{"c", "d", "e"} {
		if spans[i].Name != want {
			t.Errorf("spans[%d] = %q, want %q", i, spans[i].Name, want)
		}
	}
}

func TestSpansJSON(t *testing.T) {
	t.Parallel()
	tr := NewTracer(4)
	_, sp := tr.StartSpan(context.Background(), "estimate")
	sp.End()
	raw, err := tr.SpansJSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TotalSpans uint64       `json:"total_spans"`
		Spans      []SpanRecord `json:"spans"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.TotalSpans != 1 || len(doc.Spans) != 1 || doc.Spans[0].Name != "estimate" {
		t.Errorf("dump = %+v", doc)
	}
}

// TestSpanCounts asserts the started/ended pair tracks span lifecycle so
// cancellation tests can detect leaked (never-ended) spans, and that a double
// End is not double-counted.
func TestSpanCounts(t *testing.T) {
	t.Parallel()
	tr := NewTracer(8)
	if s, e := tr.Counts(); s != 0 || e != 0 {
		t.Fatalf("fresh tracer Counts = %d, %d", s, e)
	}
	ctx, outer := tr.StartSpan(context.Background(), "stage")
	_, inner := tr.StartSpan(ctx, "substage")
	if s, e := tr.Counts(); s != 2 || e != 0 {
		t.Fatalf("after two starts Counts = %d, %d, want 2, 0", s, e)
	}
	inner.End()
	if s, e := tr.Counts(); s != 2 || e != 1 {
		t.Fatalf("after one end Counts = %d, %d, want 2, 1", s, e)
	}
	outer.End()
	outer.End() // double End must not double-count
	if s, e := tr.Counts(); s != 2 || e != 2 {
		t.Fatalf("after all ends Counts = %d, %d, want 2, 2", s, e)
	}
}
