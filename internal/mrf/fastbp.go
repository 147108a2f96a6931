package mrf

import (
	"context"
	"fmt"
	"math"
)

// FastBP is the residual-scheduled belief-propagation engine (ROADMAP item
// 4; DESIGN.md §15). It computes the same damped sum-product fixed point as
// the Jacobi BP engine but replaces full synchronous sweeps with a
// residual-priority schedule: messages are updated in place (Gauss-Seidel),
// and the node whose incoming messages have accumulated the largest change
// since it last recomputed its outgoing messages is processed first, via a
// bucketed priority queue. On nearly-converged inputs — warm-started
// incremental rebuilds, stitch rounds on shard boundaries — the schedule
// touches only the neighbourhood that actually changed, collapsing the
// effective round count.
//
// FastBP shares the Jacobi engine's float64 message store layout and its
// per-node arithmetic (kernel.go); only the schedule differs. That schedule
// trades the Jacobi engine's bit-reproducibility for speed:
// its marginals agree with BP to well under the serving bounds (0.05 m/s /
// 0.01 P(up) — see TestFastBPMatchesJacobi* and the benchrunner
// -engine-bench gate) but are not bitwise equal, so Jacobi remains the
// authoritative reference wherever exact reproducibility is asserted.
//
// A FastBP run is deliberately sequential: the serving layers already run K
// shard inferences concurrently (core.View), which is where the cores go;
// a deterministic serial schedule keeps the engine reproducible for a given
// input. FastBP is safe for concurrent Infer calls — each run's state comes
// from a pool.
type FastBP struct {
	cfg  BPConfig
	pool runPool // of *fastRun
}

// NewFastBP returns a residual-scheduled BP engine. Tolerance keeps its
// Jacobi meaning (convergence threshold on undamped message change) and
// MaxIterations bounds the schedule at MaxIterations×N node updates — the
// same worst-case work as MaxIterations Jacobi sweeps. Damping is a
// stability *fallback*, not a per-step blend: the schedule runs undamped
// (the fixed point is damping-invariant) and the configured damping engages
// only if half the budget passes without convergence (see Infer). Workers
// is accepted for config compatibility but unused (see type comment).
func NewFastBP(cfg BPConfig) (*FastBP, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &FastBP{cfg: cfg}, nil
}

// Name implements Engine.
func (*FastBP) Name() string { return "fastbp" }

// fastRun is one FastBP Infer invocation's pooled state: the message store
// plus the residual bucket queue. The queue is intrusive — per-node
// prev/next links into per-bucket doubly-linked lists — so scheduling
// allocates nothing after setup.
type fastRun struct {
	m    *Model
	topo *Topology
	ev   []int8
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

// fastBuckets is the queue depth: bucket indices follow the residual's
// binary exponent, so 40 buckets span residual magnitudes down to ~1e-12 —
// below any sane Tolerance; smaller residuals are not queued at all.
const fastBuckets = 40

// bucketIndex maps a residual to its queue bucket: the larger the residual,
// the lower (more urgent) the bucket. Residuals ≥ 1 — sums can exceed one —
// land in bucket 0; below that each bucket halves the band.
func bucketIndex(r float64) int {
	_, exp := math.Frexp(r) // r = f·2^exp, f ∈ [0.5, 1)
	b := 1 - exp            // r ∈ [2^-b, 2^-(b-1))
	if b < 0 {
		return 0
	}
	if b >= fastBuckets {
		return fastBuckets - 1
	}
	return b
}

// getRun returns a pooled run sized for the given graph, allocating only
// when the pool is empty or holds a smaller graph's arrays.
func (b *FastBP) getRun(nEdges, n int) *fastRun {
	if r, _ := b.pool.get().(*fastRun); r != nil && cap(r.msg) >= nEdges && cap(r.residual) >= n {
		bpBufReuse.Inc()
		r.msg = r.msg[:nEdges]
		r.residual = r.residual[:n]
		r.bucketOf = r.bucketOf[:n]
		r.next = r.next[:n]
		r.prev = r.prev[:n]
		return r
	}
	return &fastRun{
		msg:      make([]float64, nEdges),
		residual: make([]float64, n),
		bucketOf: make([]int32, n),
		next:     make([]int32, n),
		prev:     make([]int32, n),
		head:     make([]int32, fastBuckets),
	}
}

// release hands the run state back to the pool on every Infer exit path,
// dropping its references to this run's model; the engine is sequential, so
// no other goroutine can still touch it.
func (b *FastBP) release(r *fastRun) {
	r.m, r.topo, r.ev = nil, nil, nil
	b.pool.put(r)
}

// link inserts u at the head of bucket b.
func (r *fastRun) link(u, b int) {
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
func (r *fastRun) unlink(u, b int) {
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
func (r *fastRun) popMin() (int, bool) {
	for r.cursor < fastBuckets {
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
func (r *fastRun) bump(v int, d, tol float64) {
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
func (r *fastRun) processNode(u int, damping, tol float64) {
	lo, hi := int(r.topo.off[u]), int(r.topo.off[u+1])
	r.residual[u] = 0
	if lo == hi {
		return
	}
	phiUp, phiDown := nodePotential(r.ev[u], r.m.prior[u])
	logUp, logDown := logProduct(0, 0, r.msg[lo:hi])
	var maxD float64
	for i := lo; i < hi; i++ {
		newMsg := cavityMessage(phiUp, phiDown, logUp, logDown, r.msg[i], r.m.agreement(r.topo.agree[i]))
		slot := r.topo.rev[i]
		old := r.msg[slot]
		r.msg[slot] = (1-damping)*newMsg + damping*old
		r.updates++
		// The undamped delta drives both scheduling and convergence — the
		// same criterion the Jacobi engine uses (see sweepRange). The slot
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
func (r *fastRun) maxResidual() float64 {
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
func (r *fastRun) effectiveRounds() float64 {
	if r.n == 0 {
		return 0
	}
	return math.Ceil(float64(r.processed) / float64(r.n))
}

// Infer implements Engine. See the type comment for the schedule; the
// engine honours the same warm-start and cancellation contracts as BP:
// compatible warm beliefs seed the message store (incompatible or nil warm
// starts uniform, no miss counted), ctx is polled every 1024 node updates,
// and the pooled run state is returned on every exit path.
func (b *FastBP) Infer(ctx context.Context, m *Model, evidence []Evidence, warm *Beliefs) (*Result, error) {
	ev, err := evidenceMap(m, evidence)
	if err != nil {
		return nil, err
	}
	topo, err := m.topology()
	if err != nil {
		return nil, err
	}
	n := m.NumRoads()
	r := b.getRun(topo.NumDirectedEdges(), n)
	defer b.release(r)
	r.m, r.topo, r.ev, r.n = m, topo, ev, n
	r.processed, r.updates, r.cursor = 0, 0, 0
	for i := range r.head {
		r.head[i] = -1
	}
	for u := 0; u < n; u++ {
		r.bucketOf[u] = -1
	}
	seedMessages(r.msg, topo, warm)
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
	budget := b.cfg.MaxIterations * n
	stabilizeAt := budget / 2
	damping, tol := 0.0, b.cfg.Tolerance
	for r.processed < budget {
		if r.processed&1023 == 0 {
			if ctxErr := ctx.Err(); ctxErr != nil {
				accountCancelledRun(r.effectiveRounds(), float64(r.updates))
				return nil, fmt.Errorf("mrf: fastbp cancelled after %d node updates: %w", r.processed, ctxErr)
			}
		}
		if r.processed == stabilizeAt {
			damping = b.cfg.Damping
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

	out := make([]float64, n)
	for u := range out {
		out[u] = marginal(ev[u], m.prior[u], r.msg[topo.off[u]:topo.off[u+1]])
	}
	return &Result{PUp: out, Beliefs: exportBeliefs(topo, r.msg)}, nil
}
