// Package resilience is the client-side survival kit for the serving
// tier: retry with capped exponential backoff and deterministic seeded
// jitter, per-backend circuit breakers with half-open probing,
// singleflight collapsing of concurrent identical requests, and an
// HDR-style latency histogram that times routed attempts and sets the
// hedge delay.
//
// The simulator's internal/fault package injects MCV breakdowns with
// retry-with-backoff *inside* the simulation; this package is the same
// philosophy applied to the HTTP path in front of it. It shares fault's
// keying discipline: a jitter fraction is a pure hash of (seed, kind,
// coordinates) via fault.U01, never of call order or wall clock, so a
// request retried at one seed sees the same delays however goroutines
// interleave.
package resilience

import (
	"time"

	"repro/internal/fault"
)

// kindBackoff is the draw kind of the backoff jitter. It lives far from
// the fault injector's own kinds (small integers) so a seed shared with a
// simulation can never correlate draws.
const kindBackoff uint64 = 0x7265730000000001 // "res\0..."

// Backoff computes retry delays: capped exponential growth with
// deterministic jitter. The zero value is usable (50 ms base, 2 s cap,
// seed 0). Jitter is a pure hash of (Seed, key, attempt) — two processes
// with one seed retrying the same request agree on every delay, which is
// what makes the router's retry counts replayable under injected faults.
type Backoff struct {
	// Base is the attempt-0 delay; 0 means 50 ms.
	Base time.Duration
	// Max caps the grown delay before jitter; 0 means 2 s.
	Max time.Duration
	// Seed drives the jitter draws.
	Seed int64
}

// Delay returns the pause before retry number attempt (0-based: the
// delay between the first failure and the second try) of the request
// identified by key. The grown delay Base<<attempt is capped at Max and
// then jittered into [0.5, 1.0) of itself, so synchronized clients
// spread out instead of retrying in lockstep.
func (b Backoff) Delay(key uint64, attempt int) time.Duration {
	base, max := b.Base, b.Max
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	if max <= 0 {
		max = 2 * time.Second
	}
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	u := fault.U01(b.Seed, kindBackoff, key, uint64(int64(attempt)), 0)
	return time.Duration(float64(d) * (0.5 + 0.5*u))
}
