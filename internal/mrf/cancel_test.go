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
	engines := []Engine{mustBP(t), mustJacobi(t), Exact{}, PriorOnly{}}
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
// context polls — a few Jacobi rounds in — and asserts the Jacobi reference
// abandons the schedule with an error chaining to context.Canceled rather
// than running to convergence. TestFastBPCancelMidSchedule does the same
// for the served schedule, which polls every 1024 node updates.
func TestBPCancelMidInference(t *testing.T) {
	m := mustModel(t, chainGraph(t, 40, 0.9), uniformPriors(40, 0.5))
	ctx := &countdownCtx{Context: context.Background(), after: 3}
	res, err := mustJacobi(t).Infer(ctx, m, []Evidence{{Road: 0, Up: true}}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("Jacobi returned a result despite mid-run cancellation")
	}
}

// TestBPCompletesOnLiveContext guards the inverse: a context that stays live
// must not perturb either schedule's result (cancellation plumbing is
// observation-free on the happy path).
func TestBPCompletesOnLiveContext(t *testing.T) {
	m := mustModel(t, chainGraph(t, 8, 0.8), uniformPriors(8, 0.5))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, eng := range bpSchedules(t) {
		want, err := eng.Infer(context.Background(), m, []Evidence{{Road: 0, Up: true}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.Infer(ctx, m, []Evidence{{Road: 0, Up: true}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.PUp {
			if got.PUp[i] != want.PUp[i] {
				t.Fatalf("%s road %d: PUp %v with live ctx, %v with Background", eng.Name(), i, got.PUp[i], want.PUp[i])
			}
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
