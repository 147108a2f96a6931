//go:build !race

package core

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = false
