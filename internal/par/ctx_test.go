package par

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

// TestForPanicSurfacesOnCaller asserts a panic inside a fanned-out body is
// re-raised on the calling goroutine as a *PanicError carrying the original
// value and a stack, instead of crashing the process from a worker.
func TestForPanicSurfacesOnCaller(t *testing.T) {
	n := 4 * SerialCutoff
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("expected For to re-panic on the caller")
		}
		pe, ok := v.(*PanicError)
		if !ok {
			t.Fatalf("recovered %T, want *PanicError", v)
		}
		if pe.Value != "boom" {
			t.Fatalf("PanicError.Value = %v, want boom", pe.Value)
		}
		if len(pe.Stack) == 0 {
			t.Fatal("PanicError.Stack is empty")
		}
	}()
	For(n, 4, func(start, end int) {
		if start == 0 {
			panic("boom")
		}
	})
}

// TestForCtxCoversRange asserts the ctx-aware loop with a live context visits
// every index exactly once across serial and parallel paths.
func TestForCtxCoversRange(t *testing.T) {
	for _, n := range []int{0, 1, 7, SerialCutoff - 1, SerialCutoff, SerialCutoff + 1, 4*SerialCutoff + 3} {
		for _, workers := range []int{0, 1, 2, 3, 16} {
			hits := make([]int32, n)
			err := ForCtx(context.Background(), n, workers, func(start, end int) {
				for i := start; i < end; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			if err != nil {
				t.Fatalf("n=%d workers=%d: ForCtx = %v", n, workers, err)
			}
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d workers=%d: index %d visited %d times", n, workers, i, h)
				}
			}
		}
	}
}

// TestForCtxCancelledAtEntry asserts a dead context short-circuits before any
// work is dispatched, on both the serial and parallel paths.
func TestForCtxCancelledAtEntry(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, n := range []int{SerialCutoff / 2, 8 * SerialCutoff} {
		var ran atomic.Int32
		err := ForCtx(ctx, n, 4, func(start, end int) { ran.Add(1) })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("n=%d: err = %v, want context.Canceled", n, err)
		}
		if got := ran.Load(); got != 0 {
			t.Fatalf("n=%d: %d chunks ran after pre-cancelled ctx", n, got)
		}
	}
}

// TestForCtxCancelStopsDispatch cancels mid-loop from inside the first chunk
// and asserts (a) the error is context.Canceled and (b) dispatch stopped well
// short of the full range — the cancellation must be observed at chunk
// granularity, not ignored until the loop drains.
func TestForCtxCancelStopsDispatch(t *testing.T) {
	n := 64 * SerialCutoff
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var chunks atomic.Int32
	err := ForCtx(ctx, n, 2, func(start, end int) {
		if chunks.Add(1) == 1 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// 2 workers × 4 chunks each = 8 total chunks; both workers may have a
	// chunk in flight when cancel lands, but the remaining ones must not
	// be dispatched.
	if got := chunks.Load(); got > 4 {
		t.Fatalf("%d chunks ran after cancellation, want ≤ 4", got)
	}
}

// TestForCtxPanicBecomesError asserts ctx-aware loops convert body panics to
// a *PanicError return instead of re-panicking, on both paths.
func TestForCtxPanicBecomesError(t *testing.T) {
	for _, n := range []int{SerialCutoff / 2, 8 * SerialCutoff} {
		err := ForCtx(context.Background(), n, 4, func(start, end int) {
			panic("boom")
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("n=%d: err = %v, want *PanicError", n, err)
		}
		if pe.Value != "boom" {
			t.Fatalf("n=%d: PanicError.Value = %v", n, pe.Value)
		}
	}
}

// TestForMaxCtxReduces asserts the ctx-aware reduction returns the global
// maximum on a live context.
func TestForMaxCtxReduces(t *testing.T) {
	n := 8 * SerialCutoff
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(i % 89)
	}
	vals[5] = 1e6 // spike in the first chunk
	got, err := ForMaxCtx(context.Background(), n, 4, func(start, end int) float64 {
		m := 0.0
		for i := start; i < end; i++ {
			if vals[i] > m {
				m = vals[i]
			}
		}
		return m
	})
	if err != nil {
		t.Fatalf("ForMaxCtx = %v", err)
	}
	if got != 1e6 {
		t.Fatalf("ForMaxCtx = %v, want 1e6", got)
	}
}

// TestPanicCounterIncrements asserts recovered panics feed the
// trendspeed_par_panics_total counter.
func TestPanicCounterIncrements(t *testing.T) {
	before := parPanics.Value()
	_ = ForCtx(context.Background(), SerialCutoff/2, 1, func(start, end int) {
		panic("counted")
	})
	if got := parPanics.Value(); got != before+1 {
		t.Fatalf("parPanics = %v, want %v", got, before+1)
	}
}
