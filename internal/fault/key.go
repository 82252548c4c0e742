package fault

import "math"

// This file exports the package's deterministic draw keying so other
// subsystems that need same-seed-same-run stochastic decisions — notably
// internal/resilience's retry jitter and the fault-injecting transport of
// internal/serve's router tests — share one keying discipline with the
// simulator's injectors instead of inventing a second RNG scheme. Every
// draw is a pure hash of (seed, kind, coordinates): independent of call
// order, wall clock and goroutine interleaving.

// Mix64 is the SplitMix64 finalizer — a full-avalanche 64-bit mixer.
// It is the hash at the bottom of every deterministic draw in this
// package.
func Mix64(x uint64) uint64 { return mix64(x) }

// U01 returns a uniform draw in [0, 1) determined purely by the seed,
// the draw kind and up to three coordinates. Distinct kinds decorrelate
// draws that share coordinates; distinct coordinates decorrelate draws
// of one kind. Callers outside this package should allocate kind values
// well away from the injector's own (which occupy small integers).
func U01(seed int64, kind, a, b, c uint64) float64 {
	h := mix64(uint64(seed) ^ kind*0x9e3779b97f4a7c15)
	h = mix64(h ^ a*0xff51afd7ed558ccd)
	h = mix64(h ^ b*0xc4ceb9fe1a85ec53)
	h = mix64(h ^ c*0x2545f4914f6cdd1d)
	return float64(h>>11) / float64(1<<53)
}

// Excess converts a uniform draw into a unit-exponential excess — the
// standard shape for multiplicative delay noise: factor = 1 + sigma *
// Excess(u).
func Excess(u float64) float64 { return -math.Log(1 - u) }
