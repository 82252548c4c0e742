package unionfind

import (
	"math/rand"
	"testing"
)

func TestBasics(t *testing.T) {
	d := New(5)
	if d.Len() != 5 || d.Sets() != 5 {
		t.Fatalf("new: Len=%d Sets=%d", d.Len(), d.Sets())
	}
	if !d.Union(0, 1) {
		t.Error("first union should merge")
	}
	if d.Union(1, 0) {
		t.Error("repeat union should not merge")
	}
	if d.Find(0) != d.Find(1) || d.Find(0) == d.Find(2) {
		t.Error("Find wrong after union")
	}
	d.Union(2, 3)
	d.Union(0, 3)
	if d.Sets() != 2 {
		t.Errorf("Sets = %d, want 2", d.Sets())
	}
	if d.Find(1) != d.Find(2) {
		t.Error("1 and 2 should be connected transitively")
	}
	if d.Find(4) == d.Find(0) {
		t.Error("4 should be singleton")
	}
}

func TestZeroAndNegative(t *testing.T) {
	if d := New(0); d.Len() != 0 || d.Sets() != 0 {
		t.Error("New(0) should be empty")
	}
	if d := New(-3); d.Len() != 0 {
		t.Error("New(-3) should be empty")
	}
}

// TestAgainstBruteForce compares connectivity with a reference reachability
// matrix under random unions.
func TestAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 40
	d := New(n)
	conn := make([][]bool, n)
	for i := range conn {
		conn[i] = make([]bool, n)
		conn[i][i] = true
	}
	merge := func(a, b int) {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if conn[i][a] && conn[b][j] {
					conn[i][j] = true
					conn[j][i] = true
				}
			}
		}
	}
	for step := 0; step < 200; step++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			continue
		}
		d.Union(a, b)
		merge(a, b)
		// Spot-check a few pairs.
		for probe := 0; probe < 10; probe++ {
			x, y := rng.Intn(n), rng.Intn(n)
			if same := d.Find(x) == d.Find(y); same != conn[x][y] {
				t.Fatalf("step %d: Find(%d) == Find(%d) is %v, brute %v", step, x, y, same, conn[x][y])
			}
		}
	}
}

func TestSetsCountsComponents(t *testing.T) {
	d := New(10)
	for i := 0; i < 9; i++ {
		d.Union(i, i+1)
	}
	if d.Sets() != 1 {
		t.Errorf("chain union: Sets = %d, want 1", d.Sets())
	}
}
