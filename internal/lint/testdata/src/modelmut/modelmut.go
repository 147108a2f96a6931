// Package core mirrors the shape of repro/internal/core for the modelmut
// fixture: a View struct, its constructor path, and the writes the analyzer
// must reject.
package core

// View mirrors the immutable-snapshot contract of the real core.View,
// including the trained part every derived view shares.
type View struct {
	*trained
	Version uint64
	Speeds  []float64
}

// trained mirrors the real core.trained: what build trains.
type trained struct {
	version  uint64
	obsCount int
}

// build is the allowed version-stamping builder path.
func build(version uint64) *View {
	v := &View{trained: &trained{}}
	v.Version = version
	v.trained.version = version
	return v
}

// MutateTrained writes the trained part, directly and through a copy of the
// shared pointer, and through the promoted field.
func MutateTrained(v *View) {
	v.trained.version = 7 // want `write to core\.trained field version outside its constructor`
	t := v.trained
	t.obsCount++  // want `write to core\.trained field obsCount outside its constructor`
	v.version = 9 // want `write to core\.View field version outside its constructor`
}

// buildIncremental is named like a builder, but only build may write a
// View's fields: a delta rebuild is build given a predecessor.
func buildIncremental(old *View) *View {
	v := build(old.Version + 1)
	v.Speeds = old.Speeds // want `write to core\.View field Speeds outside its constructor`
	return v
}

// Mutate holds the violations: writes outside the constructors.
func Mutate(v *View) []float64 {
	v.Version = 2    // want `write to core\.View field Version outside its constructor`
	v.Version++      // want `write to core\.View field Version outside its constructor`
	ptr := &v.Speeds // want `taking the address of core\.View field Speeds`
	return *ptr
}

// Rebuild is the blessed alternative: construct a successor.
func Rebuild(v *View) *View {
	return build(v.Version + 1)
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
