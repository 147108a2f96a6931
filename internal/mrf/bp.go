package mrf

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// BP observability: iterations-to-convergence, the final message residual
// and the count of runs that hit MaxIterations without meeting Tolerance.
// The paper's efficiency claim rests on BP converging in a few rounds, so
// these are first-class signals for every perf PR (see internal/obs).
// Buffer-reuse counts how often a BP run took its state from the pool
// instead of allocating; with a warm pool it tracks the served runs.
//
// Metric contract (both message-passing engines — BP and Jacobi — honour
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
		"Directed-edge message computations across all BP runs (bp: scheduled updates only; jacobi: rounds × directed edges).")
	bpBufReuse = obs.Default().Counter("trendspeed_bp_buffer_reuse_total",
		"BP runs whose messages and residual queue came from the pool instead of being freshly allocated.")
)

// MessageUpdatesTotal reports the process-wide directed-edge message-update
// count (trendspeed_bp_message_updates_total). Tests and benchmarks read
// deltas of it around engine runs to compare effective work between the
// residual-scheduled and Jacobi engines without scraping the metrics
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
	return nil
}

// BP is the loopy sum-product engine the reproduction serves (DESIGN.md
// §15). It computes the damped sum-product fixed point of the Jacobi
// reference under a residual-priority schedule: messages are updated in
// place (Gauss-Seidel), and the node whose incoming messages have
// accumulated the largest change since it last recomputed its outgoing
// messages is processed first, via a bucketed priority queue. Regions whose
// inputs stop moving go quiet, so the schedule spends its updates where
// messages are still changing.
//
// BP shares the Jacobi engine's float64 message store layout and its
// per-node arithmetic (kernel.go); only the schedule differs. Its marginals
// agree with Jacobi's to well under the serving bounds (0.05 m/s / 0.01
// P(up) — see TestBPMatchesJacobiRandomGraphs and core's
// TestServedEngineWithinBoundK1) but are not bitwise equal, so Jacobi
// remains the reference wherever a schedule-independent answer is asserted.
//
// A BP run is sequential: the serving layers run concurrent requests'
// rounds side by side, which is where the cores go, and a deterministic
// serial schedule keeps the engine reproducible for a given input. BP is
// safe for concurrent Infer calls — each run's state comes from a pool.
type BP struct {
	cfg  BPConfig
	pool runPool // of *residualRun
}

// NewBP returns the residual-scheduled BP engine. Tolerance is the
// convergence threshold on undamped message change, and MaxIterations
// bounds the schedule at MaxIterations×N node updates — the same worst-case
// work as MaxIterations Jacobi sweeps. Damping is a stability fallback, not
// a per-step blend: the schedule runs undamped (the fixed point is
// damping-invariant) and the configured damping engages only if half the
// budget passes without convergence (see residualRun.schedule).
func NewBP(cfg BPConfig) (*BP, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &BP{cfg: cfg}, nil
}

// Name implements Engine.
func (*BP) Name() string { return "bp" }

// residualRun is one BP Infer invocation's pooled state: the message store
// plus the residual bucket queue. The queue is intrusive — per-node
// prev/next links into per-bucket doubly-linked lists — so scheduling
// allocates nothing after setup.
type residualRun struct {
	m    *Model
	topo *Topology
	n    int

	// msg is the directed-edge message store (see kernel.go). Unlike the
	// Jacobi engine's read/write pair, there is one array and updates land
	// in place.
	msg []float64

	// residual[u] is the summed undamped change of u's incoming messages
	// since u's outgoing messages were last recomputed. Summing (not max)
	// lets many sub-Tolerance nudges accumulate into a visible residual, so
	// convergence is not declared while drift is still flowing.
	residual []float64
	// bucketOf[u] is the queue bucket currently holding u, -1 when idle.
	bucketOf []int32
	// next/prev are the intrusive list links; head[b] is bucket b's first
	// node or -1. Bucket b holds residuals in roughly (2^-b-ish) bands —
	// see bucketIndex — with bucket 0 the most urgent.
	next, prev []int32
	head       []int32
	// cursor is the lowest bucket index that may be non-empty; enqueues
	// below it pull it back, pops advance it.
	cursor int

	processed int   // node recomputations so far
	updates   int64 // directed-edge message writes so far
}

// queueBuckets is the queue depth: bucket indices follow the residual's
// binary exponent, so 40 buckets span residual magnitudes down to ~1e-12 —
// below any sane Tolerance; smaller residuals are not queued at all.
const queueBuckets = 40

// bucketIndex maps a residual to its queue bucket: the larger the residual,
// the lower (more urgent) the bucket. Residuals ≥ 1 — sums can exceed one —
// land in bucket 0; below that each bucket halves the band.
func bucketIndex(r float64) int {
	_, exp := math.Frexp(r) // r = f·2^exp, f ∈ [0.5, 1)
	b := 1 - exp            // r ∈ [2^-b, 2^-(b-1))
	if b < 0 {
		return 0
	}
	if b >= queueBuckets {
		return queueBuckets - 1
	}
	return b
}

// getRun returns a pooled run sized for the given graph, allocating only
// when the pool is empty or holds a smaller graph's arrays.
func (b *BP) getRun(nEdges, n int) *residualRun {
	if r, _ := b.pool.get().(*residualRun); r != nil && cap(r.msg) >= nEdges && cap(r.residual) >= n {
		bpBufReuse.Inc()
		r.msg = r.msg[:nEdges]
		r.residual = r.residual[:n]
		r.bucketOf = r.bucketOf[:n]
		r.next = r.next[:n]
		r.prev = r.prev[:n]
		return r
	}
	return &residualRun{
		msg:      make([]float64, nEdges),
		residual: make([]float64, n),
		bucketOf: make([]int32, n),
		next:     make([]int32, n),
		prev:     make([]int32, n),
		head:     make([]int32, queueBuckets),
	}
}

// release hands the run state back to the pool on every Infer exit path,
// dropping its references to this run's model; the engine is sequential, so
// no other goroutine can still touch it.
func (b *BP) release(r *residualRun) {
	r.m, r.topo = nil, nil
	b.pool.put(r)
}

// link inserts u at the head of bucket b.
func (r *residualRun) link(u, b int) {
	h := r.head[b]
	r.next[u] = h
	r.prev[u] = -1
	if h >= 0 {
		r.prev[h] = int32(u)
	}
	r.head[b] = int32(u)
	r.bucketOf[u] = int32(b)
	if b < r.cursor {
		r.cursor = b
	}
}

// unlink removes u from bucket b.
func (r *residualRun) unlink(u, b int) {
	nx, pv := r.next[u], r.prev[u]
	if pv >= 0 {
		r.next[pv] = nx
	} else {
		r.head[b] = nx
	}
	if nx >= 0 {
		r.prev[nx] = pv
	}
	r.bucketOf[u] = -1
}

// popMin removes and returns the node with the (approximately) largest
// residual, or ok=false when the queue is empty — i.e. every node's
// accumulated input change is below Tolerance: convergence.
func (r *residualRun) popMin() (int, bool) {
	for r.cursor < queueBuckets {
		u := r.head[r.cursor]
		if u < 0 {
			r.cursor++
			continue
		}
		r.unlink(int(u), r.cursor)
		return int(u), true
	}
	return 0, false
}

// bump accumulates an undamped input change onto v and (re)queues it once
// the accumulated residual crosses Tolerance. Residuals only grow between
// recomputations, so a queued node only ever moves to a more urgent bucket.
func (r *residualRun) bump(v int, d, tol float64) {
	acc := r.residual[v] + d
	r.residual[v] = acc
	if acc < tol {
		return
	}
	b := bucketIndex(acc)
	cur := int(r.bucketOf[v])
	if cur == b {
		return
	}
	if cur >= 0 {
		if b > cur {
			return // already queued more urgently
		}
		r.unlink(v, cur)
	}
	r.link(v, b)
}

// processNode recomputes every outgoing message of u from the current
// in-place message state, stores the damped results, and propagates each
// undamped change onto the receiving node's residual.
func (r *residualRun) processNode(u int, damping, tol float64) {
	lo, hi := int(r.topo.off[u]), int(r.topo.off[u+1])
	r.residual[u] = 0
	if lo == hi {
		return
	}
	phiUp, phiDown := r.m.prior[u], 1-r.m.prior[u]
	logUp, logDown := logProduct(0, 0, r.msg[lo:hi])
	var maxD float64
	for i := lo; i < hi; i++ {
		newMsg := cavityMessage(phiUp, phiDown, logUp, logDown, r.msg[i], r.topo.agree[i])
		slot := r.topo.rev[i]
		old := r.msg[slot]
		r.msg[slot] = (1-damping)*newMsg + damping*old
		r.updates++
		// The undamped delta drives both scheduling and convergence — the
		// same criterion the Jacobi engine uses (see Jacobi.sweep). The slot
		// written belongs to to[i]'s incoming range, never to [lo, hi), so
		// the cavity products above stay consistent within this node.
		if d := math.Abs(newMsg - old); d > 0 {
			r.bump(int(r.topo.to[i]), d, tol)
			if d > maxD {
				maxD = d
			}
		}
	}
	// Damping leaves each stored message damping·d short of its local fixed
	// point even if u's inputs never change again, so u keeps a self-residual
	// for the remaining creep and re-enters the queue until the undamped
	// change falls below Tolerance — without this, a node on a one-way
	// information path is processed once and its messages freeze one damped
	// step into their approach. The factor is < 1, so self-requeueing always
	// terminates geometrically.
	if self := damping * maxD; self > 0 {
		r.residual[u] = self
		if self >= tol {
			r.link(u, bucketIndex(self))
		}
	}
}

// maxResidual scans the remaining per-node residuals; after a converged run
// it is the engine's analogue of the Jacobi final-round delta.
func (r *residualRun) maxResidual() float64 {
	var mx float64
	for _, v := range r.residual {
		if v > mx {
			mx = v
		}
	}
	return mx
}

// effectiveRounds expresses schedule progress in Jacobi-sweep units so both
// engines share the trendspeed_bp_iterations histogram.
func (r *residualRun) effectiveRounds() float64 {
	if r.n == 0 {
		return 0
	}
	return math.Ceil(float64(r.processed) / float64(r.n))
}

// schedule binds the run to one inference, starts the messages uniform and
// runs the residual schedule to convergence or budget, polling ctx every
// 1024 node updates. It accounts the run either way; on cancellation it
// returns an error wrapping ctx.Err() and r.msg is void.
func (r *residualRun) schedule(ctx context.Context, cfg *BPConfig, m *Model) error {
	n, topo := m.NumRoads(), m.topo
	r.m, r.topo, r.n = m, topo, n
	r.processed, r.updates, r.cursor = 0, 0, 0
	for i := range r.head {
		r.head[i] = -1
	}
	for u := 0; u < n; u++ {
		r.bucketOf[u] = -1
	}
	seedMessages(r.msg)
	// Seed the schedule: every connected node enters the top bucket with a
	// saturated residual, so the first pass is one Gauss-Seidel sweep in
	// node order (linked in reverse: head insertion pops low IDs first).
	// After that pass only nodes whose inputs actually moved re-enter.
	for u := n - 1; u >= 0; u-- {
		if topo.off[u] == topo.off[u+1] {
			r.residual[u] = 0
			continue
		}
		r.residual[u] = 1
		r.link(u, 0)
	}

	// The schedule runs undamped: damping never moves the BP fixed point,
	// only the trajectory toward it, and the sequential one-node-at-a-time
	// updates don't exhibit the synchronous oscillation Jacobi damps. An
	// undamped step lands each message directly on its local fixed point, so
	// settled regions really do go quiet instead of creeping geometrically —
	// that is where the update-count win over Jacobi comes from. cfg.Damping
	// is kept as a stability fallback: if the schedule is still live at half
	// budget (a strongly frustrated graph — agreements below 0.5 only reach
	// the engine through externally built graphs), the configured damping
	// applies for the remainder, restoring the damped dynamics before the
	// budget expires.
	budget := cfg.MaxIterations * n
	stabilizeAt := budget / 2
	damping, tol := 0.0, cfg.Tolerance
	for r.processed < budget {
		if r.processed&1023 == 0 {
			if ctxErr := ctx.Err(); ctxErr != nil {
				accountCancelledRun(r.effectiveRounds(), float64(r.updates))
				return fmt.Errorf("mrf: bp cancelled after %d node updates: %w", r.processed, ctxErr)
			}
		}
		if r.processed == stabilizeAt {
			damping = cfg.Damping
		}
		u, ok := r.popMin()
		if !ok {
			break
		}
		r.processNode(u, damping, tol)
		r.processed++
	}
	_, pending := r.popMin()
	accountCompletedRun(r.effectiveRounds(), float64(r.updates), r.maxResidual(), !pending)
	return nil
}

// Infer implements Engine. See the type comment for the schedule; messages
// start uniform, ctx is polled every 1024 node updates, and the pooled run
// state is returned on every exit path.
func (b *BP) Infer(ctx context.Context, m *Model, evidence []Evidence, warm *Beliefs) (*Result, error) {
	if err := refuseInputs(evidence, warm); err != nil {
		return nil, err
	}
	r := b.getRun(m.topo.NumDirectedEdges(), m.NumRoads())
	defer b.release(r)
	if err := r.schedule(ctx, &b.cfg, m); err != nil {
		return nil, err
	}
	return &Result{PUp: marginals(m, r.msg)}, nil
}

// runPool recycles BP's per-run state across Infer calls. put is the
// engine's one teardown: every Infer hands its state back through it
// exactly once, on every exit path, and released counts the hand-backs.
// That count is what proves a release happened, since a later Get cannot:
// sync.Pool may drop any Put, and under the race detector it drops some on
// purpose.
type runPool struct {
	pool     sync.Pool
	released atomic.Int64
}

// get returns a pooled run state, or nil when the pool is empty.
func (p *runPool) get() any { return p.pool.Get() }

// put returns a run state to the pool and counts the release.
func (p *runPool) put(run any) {
	p.released.Add(1)
	p.pool.Put(run)
}
