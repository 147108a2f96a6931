// Package core mirrors the publication discipline of repro/internal/core
// for the pubsafe fixture: a protected View stored into an atomic.Pointer
// becomes visible to concurrent readers at the Store call, so any later
// write through a retained alias — direct or via a same-package call chain —
// is a race the analyzer must flag.
package core

import "sync/atomic"

// View mirrors the protected published artifact.
type View struct {
	Version uint64
	Rels    []float64
}

// Store publishes Views through an atomic pointer.
type Store struct {
	cur atomic.Pointer[View]
}

// Publish is the blessed order: finish every write, then store. No finding.
func (s *Store) Publish(m *View) {
	m.Version = 1
	s.cur.Store(m)
}

// PublishThenPatch writes through the alias after the store.
func (s *Store) PublishThenPatch(m *View) {
	s.cur.Store(m)
	m.Version = 2 // want `write to m after it was published via atomic store`
}

// retrain mutates its receiver; the fixpoint summary must record it.
func (m *View) retrain() {
	m.Version++
}

// bump reaches the mutation through one more call: its parameter summary
// comes from retrain's receiver summary.
func bump(m *View) {
	m.retrain()
}

// PublishThenCall mutates the published alias two calls deep.
func (s *Store) PublishThenCall(m *View) {
	s.cur.Store(m)
	bump(m) // want `call mutates m after it was published via atomic store`
}

// ReadAfterPublish only reads the alias: no finding.
func (s *Store) ReadAfterPublish(m *View) uint64 {
	s.cur.Store(m)
	return m.Version
}

// CasThenPatch exercises the CompareAndSwap publish site: the new value is
// published on success, so the write inside the taken branch is a race.
func (s *Store) CasThenPatch(old, next *View) {
	if s.cur.CompareAndSwap(old, next) {
		next.Rels[0] = 1 // want `write to next after it was published via atomic store`
	}
}

// inspect reads but never writes; calling it post-publish is fine.
func inspect(m *View) uint64 {
	return m.Version
}

// PublishThenInspect calls a non-mutating helper after the store: no finding.
func (s *Store) PublishThenInspect(m *View) uint64 {
	s.cur.Store(m)
	return inspect(m)
}

// Stagger documents the suppression path for a reviewed exception.
func (s *Store) Stagger(m *View) {
	s.cur.Store(m)
	//lint:ignore pubsafe fixture: exercising the suppression path
	m.Version = 9
}
