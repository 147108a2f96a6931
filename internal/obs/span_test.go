package obs

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"
)

// TestSpanNesting: a span started under another is named after its parent,
// fn's context carries the span, and Time returns fn's error with the
// duration it recorded.
func TestSpanNesting(t *testing.T) {
	t.Parallel()
	tr := newTracer(8)
	errStage := errors.New("stage failed")
	var inner time.Duration
	outer, err := tr.span(context.Background(), "core.new", func(ctx context.Context) error {
		var err error
		inner, err = tr.span(ctx, "corr_build", func(context.Context) error {
			time.Sleep(time.Millisecond)
			return errStage
		})
		return err
	})
	if !errors.Is(err, errStage) {
		t.Fatalf("Time returned %v, want fn's error", err)
	}
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans", len(spans))
	}
	// Inner ends first, so it is the older record.
	if spans[0].Name != "core.new/corr_build" || spans[1].Name != "core.new" {
		t.Errorf("span order = %q, %q", spans[0].Name, spans[1].Name)
	}
	if inner < time.Millisecond || outer < inner {
		t.Errorf("durations: inner %v, outer %v; want inner ≥ 1ms ≤ outer", inner, outer)
	}
	for i, d := range []time.Duration{inner, outer} {
		if got := spans[i].DurationSeconds; got != d.Seconds() {
			t.Errorf("span %q recorded %v s, Time returned %v", spans[i].Name, got, d)
		}
	}
}

// TestSpanRecordedOnPanic: a panicking fn still ends its span, and every
// enclosing one, exactly once, and the panic reaches the caller.
func TestSpanRecordedOnPanic(t *testing.T) {
	t.Parallel()
	tr := newTracer(8)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the panic did not reach the caller")
			}
		}()
		_, _ = tr.span(context.Background(), "round", func(ctx context.Context) error {
			_, _ = tr.span(ctx, "trend", func(context.Context) error { panic("engine failed") })
			return nil
		})
	}()
	if s, e := tr.Counts(); s != 2 || e != 2 {
		t.Fatalf("after the panic Counts = %d, %d, want 2, 2", s, e)
	}
	spans := tr.Spans()
	if len(spans) != 2 || spans[0].Name != "round/trend" || spans[1].Name != "round" {
		t.Fatalf("spans after the panic = %+v, want round/trend then round", spans)
	}
}

func TestSpanRingEviction(t *testing.T) {
	t.Parallel()
	tr := newTracer(3)
	names := []string{"a", "b", "c", "d", "e"}
	for _, n := range names {
		_, _ = tr.span(context.Background(), n, func(context.Context) error { return nil })
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
	tr := newTracer(4)
	_, _ = tr.span(context.Background(), "estimate", func(context.Context) error { return nil })
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

// TestSpanCounts asserts the started/ended pair counts a span as open while
// its fn runs and as ended once it returns.
func TestSpanCounts(t *testing.T) {
	t.Parallel()
	tr := newTracer(8)
	counts := func(want0, want1 uint64) {
		t.Helper()
		if s, e := tr.Counts(); s != want0 || e != want1 {
			t.Fatalf("Counts = %d, %d, want %d, %d", s, e, want0, want1)
		}
	}
	counts(0, 0)
	_, _ = tr.span(context.Background(), "stage", func(ctx context.Context) error {
		_, _ = tr.span(ctx, "substage", func(context.Context) error {
			counts(2, 0)
			return nil
		})
		counts(2, 1)
		return nil
	})
	counts(2, 2)
}
