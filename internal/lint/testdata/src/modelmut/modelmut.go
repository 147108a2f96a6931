// Package core mirrors the shape of repro/internal/core for the modelmut
// fixture: a View struct, its constructor path, the Store that publishes
// views through an atomic pointer, and the writes and publications the
// analyzer must reject.
package core

import "sync/atomic"

// View mirrors the immutable-snapshot contract of the real core.View,
// including the trained part every derived view shares.
type View struct {
	*trained
	Version uint64
	Speeds  []float64
	Meta    map[string]string
}

// trained mirrors the real core.trained: what build trains.
type trained struct {
	version  uint64
	obsCount int
	stats    stats
}

// stats is an unprotected type reached through a protected field.
type stats struct {
	rounds int
}

// Store publishes views through an atomic pointer, as the real core.Store
// does.
type Store struct {
	cur  atomic.Pointer[View]
	last atomic.Pointer[trained]
}

// build is the one function that writes a View. It may write every shape of
// target, but it may still write what it built, so it must not publish it.
func build(s *Store, version uint64) *View {
	v := &View{trained: &trained{}, Speeds: make([]float64, 1)}
	v.Version = version
	v.trained.version = version
	v.Speeds[0] = 1
	v.stats.rounds = 0
	s.cur.Store(v)           // want `build publishes a core\.View through atomic\.Pointer\.Store`
	s.last.Swap(v.trained)   // want `build publishes a core\.trained through atomic\.Pointer\.Swap`
	func() { v.Version++ }() // literals inside build are build
	return v
}

// MutateTrained writes the trained part directly, through a copy of the
// shared pointer, through a promoted field, through a dereference and
// through a nested struct.
func MutateTrained(v *View) {
	v.trained.version = 7 // want `write to core\.trained field version outside its constructor`
	t := v.trained
	t.obsCount++           // want `write to core\.trained field obsCount outside its constructor`
	v.version = 9          // want `write to core\.View field version outside its constructor`
	*v.trained = trained{} // want `write to core\.View field trained outside its constructor`
	v.stats.rounds++       // want `write to core\.View field stats outside its constructor`
}

// buildIncremental is named like a builder, but only build may write a
// View's fields: a delta rebuild is build given a predecessor.
func buildIncremental(s *Store, old *View) *View {
	v := build(s, old.Version+1)
	v.Speeds = old.Speeds // want `write to core\.View field Speeds outside its constructor`
	return v
}

// Mutate holds the violations: writes outside the constructor.
func Mutate(v *View) []float64 {
	v.Version = 2        // want `write to core\.View field Version outside its constructor`
	v.Version++          // want `write to core\.View field Version outside its constructor`
	v.Speeds[0] = 1      // want `write to core\.View field Speeds outside its constructor`
	v.Speeds[1:][0]++    // want `write to core\.View field Speeds outside its constructor`
	v.Meta["k"] = "x"    // want `write to core\.View field Meta outside its constructor`
	ptr := &v.Speeds     // want `taking the address of core\.View field Speeds`
	elem := &v.Speeds[0] // want `taking the address of core\.View field Speeds`
	*elem = 0
	return *ptr
}

// Rebuild is the blessed alternative: construct a successor.
func Rebuild(s *Store, v *View) *View {
	return build(s, v.Version+1)
}

// Publish is the blessed order: build writes, then the Store publishes what
// build returned. No finding.
func (s *Store) Publish(version uint64) {
	v := build(s, version)
	s.cur.Store(v)
}

// PublishThenPatch writes through the alias after the store.
func (s *Store) PublishThenPatch(v *View) {
	s.cur.Store(v)
	v.Version = 2 // want `write to core\.View field Version outside its constructor`
}

// retrain mutates its receiver; the write is reported here, wherever the
// call chain that reaches it starts.
func (v *View) retrain() {
	v.Version++ // want `write to core\.View field Version outside its constructor`
}

// bump reaches the write through one more call.
func bump(v *View) {
	v.retrain()
}

// PublishThenCall reaches a write two calls deep after the store; the call
// itself is not a write.
func (s *Store) PublishThenCall(v *View) {
	s.cur.Store(v)
	bump(v)
}

// CasThenPatch writes inside the branch CompareAndSwap takes on success,
// after next is published.
func (s *Store) CasThenPatch(old, next *View) {
	if s.cur.CompareAndSwap(old, next) {
		next.Speeds[0] = 1 // want `write to core\.View field Speeds outside its constructor`
	}
}

// ReadAfterPublish only reads the published view: no finding.
func (s *Store) ReadAfterPublish(v *View) uint64 {
	s.cur.Store(v)
	return v.Version + uint64(len(v.Speeds)) + uint64(v.Speeds[0])
}

// inspect reads but never writes; calling it after publication is fine.
func inspect(v *View) uint64 {
	return v.Version + v.trained.version
}

// PublishThenInspect calls a non-writing helper after the store: no finding.
func (s *Store) PublishThenInspect(v *View) uint64 {
	s.cur.Store(v)
	return inspect(v)
}

// Suppressed documents the escape hatch.
func Suppressed(v *View) {
	//lint:ignore modelmut fixture: exercising the suppression path
	v.Version = 3
}

// newView is named like a constructor, but the allow-list names exactly
// build.
func newView(v *View) {
	v.Version = 9 // want `write to core\.View field Version outside its constructor`
}
