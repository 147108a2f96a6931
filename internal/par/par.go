// Package par provides the data-parallel for-loop used by the estimation
// round's hot paths (BP message rounds, per-road regression fusion). It is a
// deliberately tiny worker-pool abstraction: contiguous index ranges fanned
// out over a bounded number of goroutines, with a serial cutoff so small
// inputs never pay goroutine overhead.
//
// Callers must only write to disjoint output indices from within the body;
// par adds no synchronisation beyond the final join.
//
// Two execution families exist:
//
//   - For: the original fire-and-join loop. A panic in a worker is
//     recovered, counted, and re-raised as a *PanicError on the calling
//     goroutine after the join, so a crashing work item surfaces where the
//     loop was invoked instead of killing the process from an anonymous
//     goroutine.
//   - ForCtx / ForMaxCtx: cancellation-aware variants, the second with a
//     per-chunk float64 reduction by maximum (the BP Jacobi round's
//     convergence check). Work is split finer than one chunk per worker
//     and claimed from a shared atomic cursor, so a context cancelled
//     mid-loop stops further dispatch at the next chunk boundary. Panics
//     are converted to an error on the join path. Both variants always
//     join every started chunk before returning — even on cancellation —
//     so callers may recycle buffers immediately.
//
// EachCtx is the task-level sibling: body(i) per item with no serial cutoff,
// for fan-out over a handful of coarse tasks (per-shard inference and
// rebuilds) rather than a large index range.
package par

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// SerialCutoff is the input size below which For runs the body inline: at
// city scale the hot loops see tens of thousands of roads, while tests and
// toy graphs see dozens, where goroutine fan-out costs more than it saves.
const SerialCutoff = 256

// ctxChunksPerWorker oversubscribes the ctx-aware loops so cancellation takes
// effect at sub-chunk granularity without paying per-index atomic traffic.
const ctxChunksPerWorker = 4

// Pool observability: how often the hot loops actually fan out, the fan-out
// width, and recovered worker panics. Exposed through the obs default
// registry so benchrunner's -json report captures the parallelism behind
// each timing.
// The two mode-labelled counters are resolved once at init: Registry.Counter
// is a mutex-guarded map lookup that builds a label key per call, which would
// put an allocation into every serial loop run — the exact path the
// zero-alloc gate (TestBPRoundAllocs) measures.
var (
	parRunsSerial = obs.Default().Counter("trendspeed_par_runs_total",
		"Data-parallel loop executions by mode (parallel = fanned out, serial = inline).",
		"mode", "serial")
	//lint:ignore metricname second label value of the same counter family, registered beside the first with the identical help string; hoisting both out of the hot loops is what the zero-alloc gate requires
	parRunsParallel = obs.Default().Counter("trendspeed_par_runs_total",
		"Data-parallel loop executions by mode (parallel = fanned out, serial = inline).",
		"mode", "parallel")
	parWorkers = obs.Default().Gauge("trendspeed_par_workers",
		"Goroutines used by the most recent parallel loop.")
	parPanics = obs.Default().Counter("trendspeed_par_panics_total",
		"Panics recovered inside parallel loop bodies and surfaced on the join path.")
)

// PanicError carries a panic recovered from a loop body across the join: the
// original panic value plus the stack of the panicking goroutine, which would
// otherwise be lost when the worker goroutine unwound.
type PanicError struct {
	Value any
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("par: panic in loop body: %v", e.Value)
}

// panicBox captures the first panic observed across a loop's workers. The
// slot is atomic because ctx-aware workers poll it mid-loop (to stop
// dispatching after a sibling crashed) while the crashing worker stores it.
type panicBox struct {
	p atomic.Pointer[PanicError]
}

// capture runs body, recording a recovered panic into the box.
func (b *panicBox) capture(body func()) {
	//lint:hotpath-ok the deferred recover closure is the panic barrier itself; it never leaves this frame, so escape analysis keeps it on the stack (proved by TestBPRoundAllocs)
	defer func() {
		if v := recover(); v != nil {
			parPanics.Inc()
			b.p.CompareAndSwap(nil, &PanicError{Value: v, Stack: debug.Stack()})
		}
	}()
	body()
}

// load returns the first captured panic, or nil.
func (b *panicBox) load() *PanicError { return b.p.Load() }

// Workers resolves a worker-count knob: values ≤ 0 mean GOMAXPROCS.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// For splits [0, n) into one contiguous chunk per worker and runs body on
// each chunk concurrently, returning after every chunk completes. workers ≤ 0
// selects GOMAXPROCS. Inputs below SerialCutoff (or workers == 1) run inline
// on the calling goroutine.
//
// A panic in a fanned-out body is recovered and re-raised on the calling
// goroutine as a *PanicError once all workers have joined; the inline path
// lets panics propagate untouched since they already unwind the caller.
func For(n, workers int, body func(start, end int)) {
	if n <= 0 {
		return
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if n < SerialCutoff || workers == 1 {
		parRunsSerial.Inc()
		body(0, n)
		return
	}
	parRunsParallel.Inc()
	parWorkers.Set(float64(workers))
	chunk := (n + workers - 1) / workers
	var box panicBox
	var wg sync.WaitGroup
	for start := 0; start < n; start += chunk {
		end := start + chunk
		if end > n {
			end = n
		}
		wg.Add(1)
		go func(s, e int) {
			defer wg.Done()
			box.capture(func() { body(s, e) })
		}(start, end)
	}
	wg.Wait()
	if pe := box.load(); pe != nil {
		panic(pe)
	}
}

// ForCtx is the cancellation-aware For. Chunks are claimed from a shared
// cursor; once ctx is cancelled no further chunk is dispatched, already
// running chunks finish, and every worker joins before ForCtx returns.
// The returned error is ctx.Err() on cancellation, a *PanicError if a body
// panicked (including on the inline path), or nil.
//
// Note ForCtx may return ctx.Err() even when every index was processed (the
// cancellation raced the final chunk); callers should treat a non-nil error
// as "results void", never as "results partial but usable".
func ForCtx(ctx context.Context, n, workers int, body func(start, end int)) error {
	//lint:hotpath-ok one adapter closure per loop invocation (not per index or per round) to share forCtx between the void and max-reducing variants
	_, err := forCtx(ctx, n, workers, func(start, end int) float64 {
		body(start, end)
		return 0
	})
	return err
}

// ForMaxCtx is ForCtx with a per-chunk float64 reduction by maximum: each
// chunk returns its local maximum and ForMaxCtx returns the global one. Used
// by the BP Jacobi round, whose convergence check needs the largest message
// change. The reduced maximum is only meaningful when the returned error is
// nil.
func ForMaxCtx(ctx context.Context, n, workers int, body func(start, end int) float64) (float64, error) {
	return forCtx(ctx, n, workers, body)
}

// EachCtx runs body(i) for every i in [0, n) across up to workers goroutines
// and joins them all before returning. Unlike ForCtx there is no serial
// cutoff: items are whole tasks (one shard's trend inference, one shard's
// rebuild), not index ranges, so even two items are worth a goroutine each.
// n == 1 runs inline on the calling goroutine.
//
// The returned error is the first body error observed, a *PanicError if a
// body panicked, or ctx.Err(). Once ctx is cancelled or any body fails, no
// further item is dispatched; items already running finish, and every worker
// joins before EachCtx returns, so callers may reuse per-item state
// immediately.
func EachCtx(ctx context.Context, n, workers int, body func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if n == 1 || workers == 1 {
		parRunsSerial.Inc()
		var box panicBox
		var firstErr error
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			box.capture(func() { firstErr = body(i) })
			if pe := box.load(); pe != nil {
				return pe
			}
			if firstErr != nil {
				return firstErr
			}
		}
		return ctx.Err()
	}
	parRunsParallel.Inc()
	parWorkers.Set(float64(workers))
	var cursor atomic.Int64
	var box panicBox
	var firstErr atomic.Pointer[error]
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && box.load() == nil && firstErr.Load() == nil {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				box.capture(func() {
					if err := body(i); err != nil {
						firstErr.CompareAndSwap(nil, &err)
					}
				})
			}
		}()
	}
	wg.Wait()
	if pe := box.load(); pe != nil {
		return pe
	}
	if ep := firstErr.Load(); ep != nil {
		return *ep
	}
	return ctx.Err()
}

// runSerial is forCtx's inline path: body(0, n) on the calling goroutine with
// a panic converted to *PanicError, like the fanned-out path's join. It is a
// standalone function rather than a panicBox because a panicBox's atomic slot
// defeats escape analysis (capture leaks its receiver, heap-allocating the box
// per loop run); here the deferred recover writes straight to the named
// result, and the serial path allocates nothing — the zero-alloc property
// TestBPRoundAllocs pins for the BP message round.
func runSerial(body func(start, end int) float64, n int) (max float64, err error) {
	//lint:hotpath-ok the deferred recover closure is the panic barrier itself; it captures only the named result and stays on this frame (proved by TestBPRoundAllocs)
	defer func() {
		if v := recover(); v != nil {
			parPanics.Inc()
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	return body(0, n), nil
}

func forCtx(ctx context.Context, n, workers int, body func(start, end int) float64) (float64, error) {
	if n <= 0 {
		return 0, ctx.Err()
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if n < SerialCutoff || workers == 1 {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		parRunsSerial.Inc()
		max, err := runSerial(body, n)
		if err != nil {
			return 0, err
		}
		return max, ctx.Err()
	}
	parRunsParallel.Inc()
	parWorkers.Set(float64(workers))
	nChunks := workers * ctxChunksPerWorker
	if nChunks > n {
		nChunks = n
	}
	chunk := (n + nChunks - 1) / nChunks
	maxes := make([]float64, workers)
	var cursor atomic.Int64
	var box panicBox
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		//lint:hotpath-ok per-worker goroutine closures are the fan-out itself: workers-many allocations per parallel loop, amortised over >= SerialCutoff indices
		go func(slot int) {
			defer wg.Done()
			for ctx.Err() == nil && box.load() == nil {
				start := int(cursor.Add(int64(chunk))) - chunk
				if start >= n {
					return
				}
				end := start + chunk
				if end > n {
					end = n
				}
				//lint:hotpath-ok per-chunk capture closure on the parallel path; the serial path (which the zero-alloc gate measures) never reaches here
				box.capture(func() {
					if m := body(start, end); m > maxes[slot] {
						maxes[slot] = m
					}
				})
			}
		}(w)
	}
	wg.Wait()
	if pe := box.load(); pe != nil {
		return 0, pe
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	max := maxes[0]
	for _, m := range maxes[1:] {
		if m > max {
			max = m
		}
	}
	return max, nil
}
