package mrf

import (
	"math"
	"sync"
	"sync/atomic"
)

// This file holds everything the two message-passing engines share. BP
// (Jacobi) and FastBP (residual) compute the same damped sum-product update
// over the same float64 message store in the Topology's CSR layout: slot i
// in [off[u], off[u+1]) is the message from neighbour to[i] into u, as
// P(up). They differ only in their schedule — which messages are recomputed
// when, and where the results are written — so the arithmetic of one node,
// warm-start seeding, belief export and the pooled-state teardown each
// exist once, here, and the run accounting once, beside the metrics it
// feeds in bp.go. Jacobi is the reference schedule, and
// TestEnginesBitIdenticalGolden pins its numbers bit for bit.

// nodePotential returns the unnormalised (up, down) potential of a node
// given its evidence state (-1 free, 0 down, 1 up) and prior, excluding
// incoming messages.
func nodePotential(ev int8, prior float64) (up, down float64) {
	switch ev {
	case 1:
		return 1, 0
	case 0:
		return 0, 1
	default:
		return prior, 1 - prior
	}
}

// logProduct adds the logs of the incoming messages in onto (logUp,
// logDown): the product of a node's inbox, in log space for stability.
func logProduct(logUp, logDown float64, in []float64) (float64, float64) {
	for _, p := range in {
		logUp += math.Log(clamp01(p))
		logDown += math.Log(clamp01(1 - p))
	}
	return logUp, logDown
}

// cavityMessage returns the undamped message, as P(up), that a node sends
// along one directed edge of effective agreement a. phiUp/phiDown is the
// node's potential, logUp/logDown the log product of all its incoming
// messages, and pIn the receiving neighbour's own message into the node,
// which the cavity divides back out.
func cavityMessage(phiUp, phiDown, logUp, logDown, pIn, a float64) float64 {
	cUp := logUp - math.Log(clamp01(pIn))
	cDown := logDown - math.Log(clamp01(1-pIn))
	hUp := phiUp * math.Exp(cUp)
	hDown := phiDown * math.Exp(cDown)
	// Marginalise over x_u for each x_v.
	mUp := hUp*edgePotential(a, true) + hDown*edgePotential(a, false)
	mDown := hUp*edgePotential(a, false) + hDown*edgePotential(a, true)
	z := mUp + mDown
	if z <= 0 || math.IsNaN(z) {
		return 0.5
	}
	return mUp / z
}

// marginal returns the posterior P(up) of one node from its evidence
// state, its prior and its incoming messages in. A zero potential maps to
// log-domain -Inf, so a clamped node reads out exactly 0 or 1.
func marginal(ev int8, prior float64, in []float64) float64 {
	phiUp, phiDown := nodePotential(ev, prior)
	logUp, logDown := math.Log(clamp01(phiUp)), math.Log(clamp01(phiDown))
	//lint:ignore floateq exact zero is the log-domain sentinel: a clamped potential of 0 must map to -Inf
	if phiUp == 0 {
		logUp = math.Inf(-1)
	}
	//lint:ignore floateq exact zero is the log-domain sentinel: a clamped potential of 0 must map to -Inf
	if phiDown == 0 {
		logDown = math.Inf(-1)
	}
	return probUp(logProduct(logUp, logDown, in))
}

// probUp normalises an unnormalised log-domain (up, down) pair into P(up),
// shifting by the larger log first so neither exponential overflows.
func probUp(logUp, logDown float64) float64 {
	mx := math.Max(logUp, logDown)
	pu := math.Exp(logUp - mx)
	return pu / (pu + math.Exp(logDown-mx))
}

// seedMessages starts a run's message store: from warm when the beliefs are
// compatible with topo (counted as a warm start), otherwise uniform 0.5.
// Incompatible beliefs are ignored without counting a miss: the caller
// supplied usable state and only the topology moved.
func seedMessages(msg []float64, topo *Topology, warm *Beliefs) {
	if warm.Compatible(topo) {
		copy(msg, warm.msg)
		bpWarmStarts.Inc()
		return
	}
	for i := range msg {
		msg[i] = 0.5
	}
}

// exportBeliefs copies a completed run's messages out of its pooled store
// as Beliefs keyed to topo, so the result can warm-start either engine over
// the same topology, or over another one through Beliefs.Remap.
func exportBeliefs(topo *Topology, msg []float64) *Beliefs {
	exported := make([]float64, len(msg))
	copy(exported, msg)
	return &Beliefs{topo: topo, msg: exported}
}

// runPool recycles one engine's per-run state across Infer calls. put is
// the engines' one teardown: every Infer hands its state back through it
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
