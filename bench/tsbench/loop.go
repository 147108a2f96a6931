package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// Phases of a run, in order. Each draws its requests from its own rng
// stream, and its name is the request-ID infix, so a request in a server
// log or trace can be traced back to its phase.
const (
	phaseVerify = iota
	phaseWarmup
	phaseMeasure
)

var phaseNames = [...]string{"verify", "warmup", "measure"}

func requestID(phase, conn, seq int) string {
	return fmt.Sprintf("tsb-%s-w%d-%05d", phaseNames[phase], conn, seq)
}

// rngFor returns the request stream of one connection of one phase: the
// same seed always yields the same requests.
func rngFor(seed int64, phase, conn int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(phase)*1009 + int64(conn)))
}

// evalSeed seeds the verify pass. It is the same whatever --seed says, so the
// verify pass is the benchmark's fixed evaluation set: the estimates it
// scores are the same requests on every run, and estimate_mae_mps moves only
// when the server's answers do.
const evalSeed = 0

// verifyOps returns the n requests of the verify pass, in the shape of the
// workload's first connection; a churn workload's every tenth request is a
// seeds request. The estimates come first, so all of them are answered by
// the model the server trained at set-up, before an observation batch can
// trigger a rebuild.
func verifyOps(g *generator, n int) []op {
	rng := rngFor(evalSeed, phaseVerify, 0)
	ops := make([]op, n)
	for i := range ops {
		if g.w.churn && i%10 == 9 {
			ops[i] = g.churnOp(rng)
		} else {
			ops[i] = g.next(rng, i)
		}
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].kind == opEstimate && ops[j].kind != opEstimate })
	return ops
}

// runSequential sends the n requests of the verify pass one after another.
func runSequential(ctx context.Context, c *client, g *generator, n int) []result {
	out := make([]result, 0, n)
	for i, o := range verifyOps(g, n) {
		if ctx.Err() != nil {
			break
		}
		out = append(out, c.do(ctx, o, requestID(phaseVerify, 0, i), time.Now(), false))
	}
	return out
}

// drive runs one phase for d over maxConns connections. The connections that
// carry the workload's mix each keep a fixed schedule (an open loop), rate
// requests per second in total, offset from one another by an even share of
// the interval. A connection whose schedule the server cannot keep up with
// sends back to back, and the phase lasts until its d × rate requests are
// answered. A churn workload's last connection runs a closed loop of
// seeds requests: the next leaves as soon as the last is answered, so a
// selection is in flight all phase long, however fast the box is.
//
// A request is timed from when it was due, so a stall is charged to every
// request queued behind it instead of silently delaying them. With
// alternate, every untracedEvery-th estimate of a connection asks the traced
// server not to record it.
func drive(ctx context.Context, c *client, g *generator, seed int64, phase int, d time.Duration, rate float64, alternate bool) []result {
	mixConns := maxConns
	if g.w.churn {
		mixConns--
	}
	start := time.Now()
	end := start.Add(d)
	per := make([][]result, maxConns)
	var wg sync.WaitGroup
	for w := 0; w < maxConns; w++ {
		churn := w >= mixConns
		interval := time.Duration(float64(mixConns) / rate * float64(time.Second))
		due := start.Add(time.Duration(w) * interval / time.Duration(mixConns))
		if churn {
			due = start
		}
		wg.Add(1)
		go func(w int, churn bool, due time.Time, interval time.Duration) {
			defer wg.Done()
			rng := rngFor(seed, phase, w)
			estimates := 0
			for i := 0; due.Before(end) && ctx.Err() == nil; i++ {
				var o op
				if churn {
					o = g.churnOp(rng)
				} else {
					o = g.next(rng, i)
				}
				untraced := false
				if o.kind == opEstimate {
					estimates++
					untraced = alternate && estimates%untracedEvery == 0
				}
				if wait := time.Until(due); wait > 0 {
					t := time.NewTimer(wait)
					select {
					case <-ctx.Done():
						t.Stop()
						return
					case <-t.C:
					}
				}
				per[w] = append(per[w], c.do(ctx, o, requestID(phase, w, i), due, untraced))
				if churn {
					due = time.Now()
				} else {
					due = due.Add(interval)
				}
			}
		}(w, churn, due, interval)
	}
	wg.Wait()

	var all []result
	for _, rs := range per {
		all = append(all, rs...)
	}
	return all
}
