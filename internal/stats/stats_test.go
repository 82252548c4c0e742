package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{5}, 5},
		{"pair", []float64{2, 4}, 3},
		{"negatives", []float64{-1, 1}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var acc Accumulator
			for _, x := range tt.xs {
				acc.Add(x)
			}
			if got := acc.Mean(); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("Mean = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestStdDev(t *testing.T) {
	var acc Accumulator
	if got := acc.StdDev(); got != 0 {
		t.Errorf("StdDev(empty) = %v", got)
	}
	acc.Add(7)
	if got := acc.StdDev(); got != 0 {
		t.Errorf("StdDev(single) = %v", got)
	}
	// Known sample: {2,4,4,4,5,5,7,9} has sample stddev ~2.138.
	acc = Accumulator{}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		acc.Add(x)
	}
	if got := acc.StdDev(); math.Abs(got-2.1380899353) > 1e-6 {
		t.Errorf("StdDev = %v", got)
	}
}

func TestMinMax(t *testing.T) {
	var acc Accumulator
	for _, x := range []float64{3, -2, 8, 0} {
		acc.Add(x)
	}
	if acc.Min() != -2 || acc.Max() != 8 {
		t.Errorf("Min=%v Max=%v", acc.Min(), acc.Max())
	}
}

func TestAccumulatorMatchesBatch(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(200)
		xs := make([]float64, n)
		var acc Accumulator
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
			acc.Add(xs[i])
		}
		// The two-pass batch statistics.
		m := 0.0
		for _, x := range xs {
			m += x
		}
		m /= float64(n)
		ss, lo, hi := 0.0, math.Inf(1), math.Inf(-1)
		for _, x := range xs {
			ss += (x - m) * (x - m)
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
		tol := 1e-6
		return acc.N() == n &&
			math.Abs(acc.Mean()-m) < tol &&
			math.Abs(acc.StdDev()-math.Sqrt(ss/float64(n-1))) < tol &&
			acc.Min() == lo &&
			acc.Max() == hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAccumulatorEmpty(t *testing.T) {
	var acc Accumulator
	if acc.N() != 0 || acc.Mean() != 0 || acc.StdDev() != 0 {
		t.Error("empty accumulator should be zeroed")
	}
	if !math.IsInf(acc.Min(), 1) || !math.IsInf(acc.Max(), -1) {
		t.Error("empty accumulator Min/Max should be +/-Inf")
	}
}
