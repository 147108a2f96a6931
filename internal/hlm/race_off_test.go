//go:build !race

package hlm

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = false
