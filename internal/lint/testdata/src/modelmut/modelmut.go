// Package core mirrors the shape of repro/internal/core for the modelmut
// fixture: a View struct, its constructor path, and the writes the analyzer
// must reject.
package core

// View mirrors the immutable-snapshot contract of the real core.View.
type View struct {
	Version uint64
	Speeds  []float64
}

// build is the allowed version-stamping builder path.
func build(version uint64) *View {
	v := &View{}
	v.Version = version
	return v
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
