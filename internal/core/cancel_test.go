package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/mrf"
	"repro/internal/obs"
)

// blockingEngine parks inside Infer until the round's context dies, signalling
// entry so tests can cancel at a known point. It stands in for a slow
// inference pass without any timing assumptions.
type blockingEngine struct {
	entered chan struct{}
	once    *sync.Once
}

func newBlockingEngine() blockingEngine {
	return blockingEngine{entered: make(chan struct{}), once: new(sync.Once)}
}

func (e blockingEngine) Name() string { return "blocking-test" }

func (e blockingEngine) Infer(ctx context.Context, m *mrf.Model, ev []mrf.Evidence, _ *mrf.Beliefs) (*mrf.Result, error) {
	e.once.Do(func() { close(e.entered) })
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestEstimateCtxCancelPromptReturn cancels an estimate stuck in inference and
// asserts the round (a) unwinds promptly, (b) surfaces context.Canceled, (c)
// bumps trendspeed_estimate_canceled_total, and (d) leaks no span — started
// minus ended on the default tracer is unchanged once the round returns.
func TestEstimateCtxCancelPromptReturn(t *testing.T) {
	d := buildCity(t, 5, 4)
	eng := newBlockingEngine()
	v := viewWithEngine(t, d, eng)

	s0, e0 := obs.DefaultTracer().Counts()
	canceled0 := estimateCanceled.Value()

	ctx, cancel := context.WithCancel(context.Background())
	type outcome struct {
		res *Estimate
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := v.Estimate(ctx, d.Slot(), nil)
		done <- outcome{res, err}
	}()

	select {
	case <-eng.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("engine never entered")
	}
	start := time.Now()
	cancel()
	var got outcome
	select {
	case got = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("estimate did not return after cancellation")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("estimate took %v to unwind after cancel", elapsed)
	}
	if !errors.Is(got.err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", got.err)
	}
	if got.res != nil {
		t.Error("cancelled estimate returned a result")
	}
	if got := estimateCanceled.Value(); got != canceled0+1 {
		t.Errorf("estimateCanceled = %v, want %v", got, canceled0+1)
	}
	s1, e1 := obs.DefaultTracer().Counts()
	if s1-e1 != s0-e0 {
		t.Errorf("span leak: open spans went from %d to %d", s0-e0, s1-e1)
	}
}

// TestEstimateCtxDeadlineCountsCanceled asserts deadline expiry is folded into
// the same canceled counter as explicit cancellation.
func TestEstimateCtxDeadlineCountsCanceled(t *testing.T) {
	d := buildCity(t, 5, 4)
	v := viewWithEngine(t, d, newBlockingEngine())
	canceled0 := estimateCanceled.Value()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := v.Estimate(ctx, d.Slot(), nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if got := estimateCanceled.Value(); got != canceled0+1 {
		t.Errorf("estimateCanceled = %v, want %v", got, canceled0+1)
	}
}

// TestRebuildCtxCancelled asserts a rebuild launched with a dead context
// aborts before publishing: the error chains to context.Canceled, the served
// model keeps its version, and buffered observations survive for the next
// attempt.
func TestRebuildCtxCancelled(t *testing.T) {
	d, st := buildStore(t)
	if _, err := st.Ingest(Observation{Road: 0, Slot: d.Slot(), Speed: 9.5}); err != nil {
		t.Fatal(err)
	}
	v0 := st.View().Version()
	buffered0 := st.BufferedObservations()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := st.Rebuild(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("RebuildCtx = %v, want context.Canceled", err)
	}
	if got := st.View().Version(); got != v0 {
		t.Errorf("model version changed %d → %d despite aborted rebuild", v0, got)
	}
	if got := st.BufferedObservations(); got != buffered0 {
		t.Errorf("buffered observations %d → %d; aborted rebuild must not consume them", buffered0, got)
	}
	// The store stays serviceable: a fresh rebuild with a live context works.
	// Version numbers are allocated at publish, so the aborted attempt
	// consumed nothing and the follow-up lands at exactly v0+1.
	m, err := st.Rebuild(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.Version() != v0+1 {
		t.Errorf("follow-up rebuild version = %d, want exactly %d (no gap)", m.Version(), v0+1)
	}
}

// TestCloseCancelsStoreLifetime asserts RebuildCtx refuses to run once the
// store is closed, even with a live caller context.
func TestCloseCancelsStoreLifetime(t *testing.T) {
	_, st := buildStore(t)
	st.Close()
	if _, err := st.Rebuild(context.Background()); err == nil {
		t.Fatal("RebuildCtx succeeded on a closed store")
	}
}
