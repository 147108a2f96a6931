package mrf

import (
	"context"
	"fmt"
	"math"

	"repro/internal/obs"
	"repro/internal/par"
)

// BP observability: iterations-to-convergence, the final message residual
// and the count of runs that hit MaxIterations without meeting Tolerance.
// The paper's efficiency claim rests on BP converging in a few rounds, so
// these are first-class signals for every perf PR (see internal/obs).
// Buffer-reuse counts how often a run served its message arrays from the
// sync.Pool instead of allocating; with a warm pool it tracks bpRuns.
//
// Metric contract (every message-passing engine — BP and FastBP — honours
// it; DESIGN.md §15): trendspeed_bp_runs_total counts every run, including
// runs cancelled mid-schedule; trendspeed_bp_iterations observes the
// effective rounds of every run, with cancelled runs contributing their
// partial progress; trendspeed_bp_cancelled_total counts the cancelled
// subset; trendspeed_bp_final_residual is observed only by runs that
// completed their schedule (a cancelled run has no meaningful residual);
// trendspeed_bp_message_updates_total accumulates directed-edge message
// computations across all runs, cancelled ones included.
var (
	bpIterations = obs.Default().Histogram("trendspeed_bp_iterations",
		"Loopy-BP message-passing rounds until convergence (or MaxIterations); cancelled runs contribute their partial round count.",
		obs.LinearBuckets(5, 5, 12))
	bpFinalResidual = obs.Default().Histogram("trendspeed_bp_final_residual",
		"Largest undamped message change in the last round of each completed BP run, log-bucketed.",
		obs.ExponentialBuckets(1e-8, 10, 9))
	bpNonConverged = obs.Default().Counter("trendspeed_bp_nonconverged_total",
		"BP runs that exhausted MaxIterations above Tolerance.")
	bpRuns = obs.Default().Counter("trendspeed_bp_runs_total",
		"Total BP inference runs, including runs cancelled mid-schedule.")
	bpCancelled = obs.Default().Counter("trendspeed_bp_cancelled_total",
		"BP runs abandoned mid-schedule because the caller's context was cancelled or its deadline expired.")
	bpMessageUpdates = obs.Default().Counter("trendspeed_bp_message_updates_total",
		"Directed-edge message computations across all BP runs (Jacobi: rounds × directed edges; FastBP: scheduled updates only).")
	bpBufReuse = obs.Default().Counter("trendspeed_bp_buffer_reuse_total",
		"BP message buffers served from the pool instead of freshly allocated.")
)

// MessageUpdatesTotal reports the process-wide directed-edge message-update
// count (trendspeed_bp_message_updates_total). Tests and benchmarks read
// deltas of it around engine runs to compare effective work between the
// Jacobi and residual-scheduled engines without scraping the metrics
// registry.
func MessageUpdatesTotal() float64 { return bpMessageUpdates.Value() }

// accountCancelledRun records the telemetry of a run abandoned mid-schedule:
// the run still counts (bpRuns), its partial progress still lands in the
// iteration histogram and the update counter — under deadline pressure the
// cancelled runs are exactly the ones an operator needs to see — and the
// cancellation itself is counted separately.
func accountCancelledRun(effectiveRounds, messageUpdates float64) {
	bpRuns.Inc()
	bpIterations.Observe(effectiveRounds)
	bpMessageUpdates.Add(messageUpdates)
	bpCancelled.Inc()
}

// accountCompletedRun records the telemetry of a run that finished its
// schedule, converged or not: the run, its effective rounds (Jacobi sweeps
// or their equivalent), its message updates and its final residual, plus a
// non-convergence count when the budget ran out above Tolerance.
func accountCompletedRun(effectiveRounds, messageUpdates, finalResidual float64, converged bool) {
	bpRuns.Inc()
	bpIterations.Observe(effectiveRounds)
	bpMessageUpdates.Add(messageUpdates)
	bpFinalResidual.Observe(finalResidual)
	if !converged {
		bpNonConverged.Inc()
	}
}

// BPConfig parameterises loopy belief propagation.
type BPConfig struct {
	// MaxIterations bounds the message-passing rounds.
	MaxIterations int
	// Damping blends each new message with the previous one:
	// m ← (1-d)·m_new + d·m_old. Values around 0.3 stabilise loopy graphs.
	Damping float64
	// Tolerance stops iteration once the largest message change in a round
	// falls below it.
	Tolerance float64
	// Workers bounds the goroutines used per message round; 0 means
	// GOMAXPROCS. Small graphs run serially regardless (par.SerialCutoff).
	Workers int
}

// DefaultBPConfig returns settings that converge on city-scale graphs.
func DefaultBPConfig() BPConfig {
	return BPConfig{MaxIterations: 50, Damping: 0.3, Tolerance: 1e-4}
}

// Validate rejects unusable configurations.
func (c *BPConfig) Validate() error {
	if c.MaxIterations < 1 {
		return fmt.Errorf("mrf: MaxIterations must be ≥ 1, got %d", c.MaxIterations)
	}
	if c.Damping < 0 || c.Damping >= 1 {
		return fmt.Errorf("mrf: Damping must be in [0, 1), got %v", c.Damping)
	}
	if c.Tolerance <= 0 {
		return fmt.Errorf("mrf: Tolerance must be positive, got %v", c.Tolerance)
	}
	if c.Workers < 0 {
		return fmt.Errorf("mrf: Workers must be ≥ 0, got %d", c.Workers)
	}
	return nil
}

// BP is the loopy sum-product engine: the default trend-inference engine of
// the reproduction. It is safe for concurrent Infer calls; each run's state
// comes from a pool.
type BP struct {
	cfg  BPConfig
	pool runPool // of *bpRun
}

// NewBP returns a BP engine.
func NewBP(cfg BPConfig) (*BP, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &BP{cfg: cfg}, nil
}

// Name implements Engine.
func (*BP) Name() string { return "bp" }

// bpRun is one Infer invocation's mutable state. The message-sweep and
// marginal-readout loop bodies are methods on this struct rather than
// closures inside Infer: a closure rebuilt per round is one heap allocation
// per round (its captures escape into par's workers), while a method value
// bound once in newBPRun makes every subsequent round pass the same func
// value — the message round itself then allocates nothing on the serial
// path, which TestBPRoundAllocs pins and core's TestEstimateRoundAllocs
// guards.
type bpRun struct {
	cfg  *BPConfig
	m    *Model
	topo *Topology
	ev   []int8
	n    int
	// The Jacobi buffer pair over the shared message store layout (see
	// kernel.go). Every slot is rewritten each round (its sender always has
	// ≥ 1 neighbour), so the round boundary is a pointer swap, not a copy.
	msg  []float64 // previous round's messages (read)
	next []float64 // this round's messages (written)
	out  []float64 // marginal readout destination
	// sweep is r.sweepRange bound once; round hands this pre-existing func
	// value to par.ForMaxCtx instead of minting a closure per round.
	sweep func(start, end int) float64
}

// newBPRun binds run state for one inference, reusing a pooled run unless
// the pool is empty or holds a smaller graph's buffers, and starts the
// messages uniform.
func newBPRun(b *BP, m *Model, topo *Topology, ev []int8) *bpRun {
	nEdges := topo.NumDirectedEdges()
	r, _ := b.pool.get().(*bpRun)
	if r != nil && cap(r.msg) >= nEdges && cap(r.next) >= nEdges {
		bpBufReuse.Inc()
	} else {
		r = &bpRun{msg: make([]float64, nEdges), next: make([]float64, nEdges)}
		r.sweep = r.sweepRange
	}
	r.cfg, r.m, r.topo, r.ev, r.n = &b.cfg, m, topo, ev, m.NumRoads()
	r.msg, r.next = r.msg[:nEdges], r.next[:nEdges]
	seedMessages(r.msg)
	return r
}

// sweepRange is one Jacobi message update over nodes [start, end),
// returning the largest message change in the range. It reads r.msg and
// writes disjoint slots of r.next, so par may run ranges concurrently.
func (r *bpRun) sweepRange(start, end int) float64 {
	damping := r.cfg.Damping
	var localMax float64
	for u := start; u < end; u++ {
		lo, hi := int(r.topo.off[u]), int(r.topo.off[u+1])
		if lo == hi {
			continue
		}
		phiUp, phiDown := nodePotential(r.ev[u], r.m.prior[u])
		logUp, logDown := logProduct(0, 0, r.msg[lo:hi])
		for i := lo; i < hi; i++ {
			newMsg := cavityMessage(phiUp, phiDown, logUp, logDown, r.msg[i], r.m.agreement(r.topo.agree[i]))
			slot := r.topo.rev[i]
			old := r.msg[slot]
			r.next[slot] = (1-damping)*newMsg + damping*old
			// Convergence tracks the undamped delta |new − old|: damping
			// scales the stored step by (1−d) but not the distance to the
			// fixed point, so testing the damped step against Tolerance
			// stops while the true change is still Tolerance/(1−d).
			if d := math.Abs(newMsg - old); d > localMax {
				localMax = d
			}
		}
	}
	return localMax
}

// round runs one full Jacobi sweep across the worker pool and swaps the
// message buffers, returning the round's largest message change.
func (r *bpRun) round(ctx context.Context) (float64, error) {
	maxDelta, err := par.ForMaxCtx(ctx, r.n, r.cfg.Workers, r.sweep)
	if err != nil {
		return 0, err
	}
	r.msg, r.next = r.next, r.msg
	return maxDelta, nil
}

// readoutRange computes the final marginals for nodes [start, end) from the
// converged messages into r.out.
func (r *bpRun) readoutRange(start, end int) {
	for u := start; u < end; u++ {
		r.out[u] = marginal(r.ev[u], r.m.prior[u], r.msg[r.topo.off[u]:r.topo.off[u+1]])
	}
}

// release hands the run state back to the pool, dropping its references to
// this run's model and output. par joins all workers before reporting
// cancellation, so no goroutine still writes to the buffers.
func (r *bpRun) release(b *BP) {
	r.m, r.topo, r.ev, r.out = nil, nil, nil, nil
	b.pool.put(r)
}

// Infer implements Engine. Messages are represented by their "up"
// probability; with binary states the "down" component is implied.
//
// The message schedule is Jacobi: every directed edge's new message is
// computed from the previous round's messages only, so the per-node update
// loop writes disjoint slots and fans out across a worker pool (BPConfig.
// Workers) without changing the numerical result.
//
// Cancellation is observed between message rounds (and, through par's
// ctx-aware loops, between chunks inside a round): a cancelled ctx aborts
// the run with an error wrapping ctx.Err(). The pooled run state is
// returned on every exit path. Messages start uniform; warm is ignored.
func (b *BP) Infer(ctx context.Context, m *Model, evidence []Evidence, _ *Beliefs) (*Result, error) {
	ev, err := evidenceMap(m, evidence)
	if err != nil {
		return nil, err
	}
	topo, err := m.topology()
	if err != nil {
		return nil, err
	}
	r := newBPRun(b, m, topo, ev)
	defer r.release(b)

	nEdges := float64(topo.NumDirectedEdges())
	iters := 0
	lastDelta := math.Inf(1)
	for iter := 0; iter < b.cfg.MaxIterations; iter++ {
		maxDelta, roundErr := r.round(ctx)
		if roundErr != nil {
			accountCancelledRun(float64(iter), float64(iter)*nEdges)
			return nil, fmt.Errorf("mrf: bp cancelled after %d rounds: %w", iter, roundErr)
		}
		iters = iter + 1
		lastDelta = maxDelta
		if maxDelta < b.cfg.Tolerance {
			break
		}
	}
	accountCompletedRun(float64(iters), float64(iters)*nEdges, lastDelta, lastDelta < b.cfg.Tolerance)

	r.out = make([]float64, r.n)
	if readErr := par.ForCtx(ctx, r.n, b.cfg.Workers, r.readoutRange); readErr != nil {
		// The message schedule completed, so the run is already accounted
		// above; only the cancellation itself still needs counting.
		bpCancelled.Inc()
		return nil, fmt.Errorf("mrf: bp marginal readout cancelled: %w", readErr)
	}
	return &Result{PUp: r.out}, nil
}

// clamp01 keeps probabilities strictly inside (0, 1) for log safety.
func clamp01(p float64) float64 {
	const eps = 1e-9
	if p < eps {
		return eps
	}
	if p > 1-eps {
		return 1 - eps
	}
	return p
}
