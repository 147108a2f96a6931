package mrf

// Beliefs is the converged message state of one BP run, keyed to the
// topology it was computed over. A later run over a *compatible* topology —
// the same Topology, or another one the beliefs were re-keyed onto by
// Remap — can seed its messages from it instead of starting uniform, which
// cuts the rounds to convergence when the underlying graph changed only
// slightly (the incremental-rebuild case: a few re-scored agreements, an
// edge or two in or out).
//
// Beliefs are immutable once produced and safe to share across goroutines;
// the message-passing engines only ever read them as initial values.
type Beliefs struct {
	topo *Topology
	msg  []float64 // directed-edge messages in topo's CSR layout, as P(up)
}

// Compatible reports whether the beliefs can seed inference over t. The
// test is CSR *shape identity* — t shares the message-slot arrays of the
// topology the beliefs were computed on — not value equality: slot i must
// denote the same directed edge in both, and only sharing guarantees that.
// Topologies built independently (e.g. at every rebuild) are never
// compatible, since their slot orders may differ; Remap is the bridge.
func (b *Beliefs) Compatible(t *Topology) bool {
	if b == nil || t == nil || b.topo == nil || len(b.msg) != len(t.to) {
		return false
	}
	if len(b.topo.to) != len(t.to) {
		return false
	}
	return len(t.to) == 0 || &b.topo.to[0] == &t.to[0]
}

// NumMessages returns the number of directed-edge messages held.
func (b *Beliefs) NumMessages() int { return len(b.msg) }

// Remap re-keys the beliefs onto t by directed-edge identity: each message
// slot of t whose (owner, neighbour) pair also exists in the beliefs'
// topology inherits that converged message, and slots for edges the old
// topology did not have start uniform. This is the warm-start bridge from
// one model's topology to its rebuilt successor's. Re-scoring moves
// agreements, and with them each node's neighbour order and so its slot
// order; MaxNeighbors pruning is a global rank decision, so even a tiny
// history delta can move an edge in or out of the pruned set. The surviving
// edges' messages are still the right prior, and remapping keeps them. The
// result is keyed to t (Compatible(t) == true) and b is not modified.
//
// Returns nil — no warm start — when b is nil or covers a different node
// count: with different nodes, edge identity itself is meaningless.
func (b *Beliefs) Remap(t *Topology) *Beliefs {
	if b == nil || b.topo == nil || t == nil || len(b.topo.off) != len(t.off) {
		return nil
	}
	if b.Compatible(t) {
		// Same CSR shape arrays: every slot already means the same edge.
		// Beliefs are immutable, so sharing the message slice is safe.
		return &Beliefs{topo: t, msg: b.msg}
	}
	msg := make([]float64, len(t.to))
	n := len(t.off) - 1
	for u := 0; u < n; u++ {
		blo, bhi := b.topo.off[u], b.topo.off[u+1]
		for i := t.off[u]; i < t.off[u+1]; i++ {
			msg[i] = 0.5
			for j := blo; j < bhi; j++ {
				if b.topo.to[j] == t.to[i] {
					msg[i] = b.msg[j]
					break
				}
			}
		}
	}
	return &Beliefs{topo: t, msg: msg}
}
