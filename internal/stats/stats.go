// Package stats provides the descriptive statistics the evaluation
// harness needs: a running accumulator (count, mean, sample standard
// deviation, min and max) for aggregating results across simulation
// instances.
package stats

import (
	"math"
)

// Accumulator collects values incrementally, tracking count, mean (via
// Welford's algorithm), variance, min and max without storing the values.
// The zero value is ready to use.
type Accumulator struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Add incorporates x.
func (a *Accumulator) Add(x float64) {
	if a.n == 0 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	a.n++
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (x - a.mean)
}

// N returns the number of values added.
func (a *Accumulator) N() int { return a.n }

// Mean returns the running mean, or 0 when empty.
func (a *Accumulator) Mean() float64 { return a.mean }

// StdDev returns the running sample standard deviation, or 0 when fewer
// than two values were added.
func (a *Accumulator) StdDev() float64 {
	if a.n < 2 {
		return 0
	}
	return math.Sqrt(a.m2 / float64(a.n-1))
}

// Min returns the smallest value added, or +Inf when empty.
func (a *Accumulator) Min() float64 {
	if a.n == 0 {
		return math.Inf(1)
	}
	return a.min
}

// Max returns the largest value added, or -Inf when empty.
func (a *Accumulator) Max() float64 {
	if a.n == 0 {
		return math.Inf(-1)
	}
	return a.max
}
