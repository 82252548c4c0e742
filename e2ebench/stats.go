package main

import (
	"fmt"
	"sort"
)

// median returns the middle sample (the mean of the two middle samples
// for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean returns the average sample, or 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailRungs are the percentiles, in tenths of a percent, a tail report
// may use, highest first.
var tailRungs = []int{990, 900, 750, 500}

// percentile is one tail report: the value at the P-th percentile
// (nearest rank) of N samples, with Beyond samples ranked above it.
type percentile struct {
	P      float64
	Value  float64
	N      int
	Beyond int
}

func (p percentile) String() string {
	return fmt.Sprintf("p%g of %d", p.P, p.N)
}

// highestTail reports the highest of p99, p90, p75 and p50 that still has
// at least ten samples ranked beyond it, so a tail value never rests on a
// handful of outliers: p99 needs 1000 samples. Below 20 samples no rung
// qualifies and the median rung is returned with its short Beyond count.
func highestTail(xs []float64) percentile {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return percentile{P: 50}
	}
	rank := func(permille int) int { return (permille*n + 999) / 1000 }
	pick := tailRungs[len(tailRungs)-1]
	for _, r := range tailRungs {
		if n-rank(r) >= 10 {
			pick = r
			break
		}
	}
	r := rank(pick)
	return percentile{P: float64(pick) / 10, Value: s[r-1], N: n, Beyond: n - r}
}
