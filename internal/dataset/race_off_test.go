//go:build !race

package dataset

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = false
