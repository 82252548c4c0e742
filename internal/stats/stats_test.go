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
			if got := Mean(tt.xs); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("Mean = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestStdDev(t *testing.T) {
	if got := StdDev(nil); got != 0 {
		t.Errorf("StdDev(nil) = %v", got)
	}
	if got := StdDev([]float64{7}); got != 0 {
		t.Errorf("StdDev(single) = %v", got)
	}
	// Known sample: {2,4,4,4,5,5,7,9} has sample stddev ~2.138.
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := StdDev(xs); math.Abs(got-2.1380899353) > 1e-6 {
		t.Errorf("StdDev = %v", got)
	}
}

func TestMinMax(t *testing.T) {
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Error("empty Min/Max should be +/-Inf")
	}
	xs := []float64{3, -2, 8, 0}
	if Min(xs) != -2 || Max(xs) != 8 {
		t.Errorf("Min=%v Max=%v", Min(xs), Max(xs))
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
		tol := 1e-6
		return acc.N() == n &&
			math.Abs(acc.Mean()-Mean(xs)) < tol &&
			math.Abs(acc.StdDev()-StdDev(xs)) < tol &&
			acc.Min() == Min(xs) &&
			acc.Max() == Max(xs)
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
