package mrf

import "math"

// This file holds everything the two message-passing engines share. BP
// (residual, served) and Jacobi (synchronous, the reference) compute the
// same damped sum-product update over the same float64 message store in the
// Topology's CSR layout: slot i in [off[u], off[u+1]) is the message from
// neighbour to[i] into u, as P(up). They differ only in their schedule —
// which messages are recomputed when, and where the results are written —
// so the arithmetic of one node, the uniform start and the marginal readout
// each exist once, here, and the run accounting once, beside the metrics it
// feeds in bp.go. TestEnginesBitIdenticalGolden pins both schedules' numbers
// bit for bit.

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
// along one directed edge of tempered agreement a. phiUp/phiDown is the
// node's potential, its prior and one minus it; logUp/logDown the log
// product of all its incoming messages, and pIn the receiving neighbour's
// own message into the node, which the cavity divides back out.
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

// probUp normalises an unnormalised log-domain (up, down) pair into P(up),
// shifting by the larger log first so neither exponential overflows.
func probUp(logUp, logDown float64) float64 {
	mx := math.Max(logUp, logDown)
	pu := math.Exp(logUp - mx)
	return pu / (pu + math.Exp(logDown-mx))
}

// seedMessages starts a run's message store uniform: every message 0.5.
func seedMessages(msg []float64) {
	for i := range msg {
		msg[i] = 0.5
	}
}

// marginals reads every node's posterior P(up) out of a run's final
// message store: its prior times its incoming messages, normalised.
// NewModel keeps every prior inside (0, 1), so both logs are finite.
func marginals(m *Model, msg []float64) []float64 {
	topo, out := m.topo, make([]float64, m.NumRoads())
	for u, p := range m.prior {
		out[u] = probUp(logProduct(math.Log(p), math.Log(1-p), msg[topo.off[u]:topo.off[u+1]]))
	}
	return out
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
