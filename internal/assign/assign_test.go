package assign

import (
	"math"
	"math/rand"
	"testing"
)

func TestHungarianEmpty(t *testing.T) {
	got, total, err := Hungarian(nil)
	if err != nil || got != nil || total != 0 {
		t.Errorf("empty: %v %v %v", got, total, err)
	}
}

func TestHungarianRejectsBadInput(t *testing.T) {
	if _, _, err := Hungarian([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("ragged matrix accepted")
	}
	if _, _, err := Hungarian([][]float64{{1}, {2}}); err == nil {
		t.Error("rows > cols accepted")
	}
	if _, _, err := Hungarian([][]float64{{math.NaN()}}); err == nil {
		t.Error("NaN accepted")
	}
	// With every cost +Inf the dual updates make no progress: an
	// infinite cost must be an error, not a loop.
	inf := math.Inf(1)
	if _, _, err := Hungarian([][]float64{{inf, inf}, {inf, inf}}); err == nil {
		t.Error("+Inf accepted")
	}
}

func TestHungarianKnownCases(t *testing.T) {
	tests := []struct {
		name string
		cost [][]float64
		want float64
	}{
		{"identity 1x1", [][]float64{{7}}, 7},
		{"2x2 swap better", [][]float64{{10, 1}, {1, 10}}, 2},
		{"2x2 diagonal better", [][]float64{{1, 10}, {10, 1}}, 2},
		{"3x3 classic", [][]float64{
			{4, 1, 3},
			{2, 0, 5},
			{3, 2, 2},
		}, 5},
		{"rectangular 2x3", [][]float64{
			{5, 9, 1},
			{10, 3, 2},
		}, 4},
		{"negative costs", [][]float64{{-5, 0}, {0, -5}}, -10},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			assign, total, err := Hungarian(tt.cost)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(total-tt.want) > 1e-9 {
				t.Errorf("total = %v, want %v (assign %v)", total, tt.want, assign)
			}
			seen := map[int]bool{}
			sum := 0.0
			for i, j := range assign {
				if j < 0 || j >= len(tt.cost[0]) || seen[j] {
					t.Fatalf("invalid assignment %v", assign)
				}
				seen[j] = true
				sum += tt.cost[i][j]
			}
			if math.Abs(sum-total) > 1e-9 {
				t.Errorf("reported total %v != recomputed %v", total, sum)
			}
		})
	}
}

// TestHungarianMatchesBruteForce verifies optimality against exhaustive
// search on random matrices.
func TestHungarianMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		r := 1 + rng.Intn(6)
		c := r + rng.Intn(3)
		cost := make([][]float64, r)
		for i := range cost {
			cost[i] = make([]float64, c)
			for j := range cost[i] {
				cost[i][j] = math.Round(rng.Float64()*200-50) / 2
			}
		}
		_, got, err := Hungarian(cost)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForce(cost)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d (%dx%d): Hungarian %v, brute force %v", trial, r, c, got, want)
		}
	}
}

func bruteForce(cost [][]float64) float64 {
	r, c := len(cost), len(cost[0])
	used := make([]bool, c)
	best := math.Inf(1)
	var rec func(i int, sum float64)
	rec = func(i int, sum float64) {
		if i == r {
			if sum < best {
				best = sum
			}
			return
		}
		for j := 0; j < c; j++ {
			if !used[j] {
				used[j] = true
				rec(i+1, sum+cost[i][j])
				used[j] = false
			}
		}
	}
	rec(0, 0)
	return best
}

func BenchmarkHungarian50(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	cost := make([][]float64, 50)
	for i := range cost {
		cost[i] = make([]float64, 50)
		for j := range cost[i] {
			cost[i][j] = rng.Float64() * 100
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Hungarian(cost); err != nil {
			b.Fatal(err)
		}
	}
}
