//go:build race

package lowerbound

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = true
