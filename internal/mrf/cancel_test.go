package mrf

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

// countdownCtx reports Canceled after its Err method has been polled a fixed
// number of times. It gives a deterministic mid-inference cancellation point
// without timing races: the engines poll ctx.Err() between rounds/sweeps, so
// "cancel after k polls" lands at a known loop boundary.
type countdownCtx struct {
	context.Context
	polls atomic.Int64
	after int64
}

func (c *countdownCtx) Err() error {
	if c.polls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// TestEnginesCancelledAtEntry asserts every engine refuses to start work on a
// context that is already dead, returning an error chaining to
// context.Canceled with no result.
func TestEnginesCancelledAtEntry(t *testing.T) {
	m := mustModel(t, chainGraph(t, 6, 0.8), uniformPriors(6, 0.5))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	engines := []Engine{mustBP(t), mustFastBP(t), Exact{}, ICM{}, Gibbs{Burn: 5, Samples: 10, Seed: 1}, PriorOnly{}}
	for _, eng := range engines {
		res, err := eng.Infer(ctx, m, []Evidence{{Road: 0, Up: true}}, nil)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", eng.Name(), err)
		}
		if res != nil {
			t.Errorf("%s: returned a result despite cancellation", eng.Name())
		}
	}
}

// TestBPCancelMidInference cancels deterministically after a handful of
// context polls — i.e. a few Jacobi rounds in — and asserts BP abandons the
// schedule with an error chaining to context.Canceled rather than running to
// convergence, and still releases its pooled run state, exactly once.
func TestBPCancelMidInference(t *testing.T) {
	m := mustModel(t, chainGraph(t, 40, 0.9), uniformPriors(40, 0.5))
	bp := mustBP(t)
	releasedBefore := bp.pool.released.Load()
	ctx := &countdownCtx{Context: context.Background(), after: 3}
	res, err := bp.Infer(ctx, m, []Evidence{{Road: 0, Up: true}}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("BP returned a result despite mid-run cancellation")
	}
	// Counted at the teardown: see TestFastBPCancelMidSchedule.
	if got := bp.pool.released.Load() - releasedBefore; got != 1 {
		t.Errorf("cancelled run released its state %d times, want exactly 1", got)
	}
}

// TestBPCompletesOnLiveContext guards the inverse: a context that stays live
// must not perturb the result (cancellation plumbing is observation-free on
// the happy path).
func TestBPCompletesOnLiveContext(t *testing.T) {
	m := mustModel(t, chainGraph(t, 8, 0.8), uniformPriors(8, 0.5))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	want, err := mustBP(t).Infer(context.Background(), m, []Evidence{{Road: 0, Up: true}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := mustBP(t).Infer(ctx, m, []Evidence{{Road: 0, Up: true}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.PUp {
		if got.PUp[i] != want.PUp[i] {
			t.Fatalf("road %d: PUp %v with live ctx, %v with Background", i, got.PUp[i], want.PUp[i])
		}
	}
}

// TestExactCancelMidEnumeration forces the 2^n enumeration to notice a
// cancellation at a mask-count boundary.
func TestExactCancelMidEnumeration(t *testing.T) {
	// 16 nodes → 65536 masks → several cancelCheckMasks boundaries.
	m := mustModel(t, chainGraph(t, 16, 0.7), uniformPriors(16, 0.5))
	ctx := &countdownCtx{Context: context.Background(), after: 2}
	if _, err := (Exact{}).Infer(ctx, m, nil, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
