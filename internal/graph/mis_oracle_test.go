package graph

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
)

// The oracle contract: the bucket queue must pick the IDENTICAL vertex
// sequence as the quadratic rescan reference — not merely the same final
// set — for both degree orders, on every graph. Sequence equality is the
// strongest possible statement: it implies every downstream schedule,
// golden objective and plan-cache entry is byte-identical across the two
// engines.

// misByDegreeRescan is the reference selection loop the bucket queue is
// proven against: per selection it rescans every alive vertex for the
// extreme residual degree (Θ(n) per pick, Θ(n · selections) overall —
// quadratic on graphs whose MIS grows with n). Returns vertices in
// selection order.
func misByDegreeRescan(g *Undirected, wantMin bool) []int {
	n := g.Len()
	deg := make([]int, n)
	alive := make([]bool, n)
	for v := 0; v < n; v++ {
		deg[v] = g.Degree(v)
		alive[v] = true
	}
	remaining := n
	var out []int
	remove := make([]int, 0, 16) // scratch, reused across selections
	for remaining > 0 {
		best := -1
		for v := 0; v < n; v++ {
			if !alive[v] {
				continue
			}
			if best < 0 ||
				(wantMin && deg[v] < deg[best]) ||
				(!wantMin && deg[v] > deg[best]) {
				best = v
			}
		}
		out = append(out, best)
		// Remove best and its alive neighbors; fix residual degrees.
		remove = append(remove[:0], best)
		for _, w := range g.Neighbors(best) {
			if alive[w] {
				remove = append(remove, int(w))
			}
		}
		for _, v := range remove {
			alive[v] = false
			remaining--
		}
		for _, v := range remove {
			for _, w := range g.Neighbors(v) {
				if alive[w] {
					deg[w]--
				}
			}
		}
	}
	return out
}

// degreeSequences returns the bucket and rescan selection sequences.
func degreeSequences(g *Undirected, wantMin bool) (bucket, rescan []int) {
	return misByDegreeBucket(g, wantMin, nil), misByDegreeRescan(g, wantMin)
}

func assertSameSequence(t *testing.T, g *Undirected, label string) {
	t.Helper()
	for _, wantMin := range []bool{true, false} {
		order := "max"
		if wantMin {
			order = "min"
		}
		bucket, rescan := degreeSequences(g, wantMin)
		if len(bucket) != len(rescan) {
			t.Fatalf("%s/%s-degree: bucket picked %d vertices, rescan %d",
				label, order, len(bucket), len(rescan))
		}
		for i := range bucket {
			if bucket[i] != rescan[i] {
				t.Fatalf("%s/%s-degree: selection %d diverges: bucket picked %d, rescan %d\nbucket: %v\nrescan: %v",
					label, order, i, bucket[i], rescan[i], bucket, rescan)
			}
		}
		// And the public entry point still returns a valid MIS either way.
		misOrder := MISMaxDegree
		if wantMin {
			misOrder = MISMinDegree
		}
		set := MaximalIndependentSetWith(g, misOrder, MISConfig{})
		if g.Len() > 0 && !IsMaximalIndependentSet(g, set) {
			t.Fatalf("%s/%s-degree: bucket result is not a maximal independent set: %v", label, order, set)
		}
	}
}

// cycleGraph returns the n-cycle (2-regular: every selection is a mass tie).
func cycleGraph(n int) *Undirected {
	edges := make([][2]int, 0, n)
	for v := 0; v < n; v++ {
		edges = append(edges, [2]int{v, (v + 1) % n})
	}
	return FromEdges(n, edges)
}

// matchingGraph returns n/2 disjoint edges (1-regular, maximal degree ties,
// the adversary where a naive per-pop bucket scan degrades to quadratic).
func matchingGraph(n int) *Undirected {
	var edges [][2]int
	for v := 0; v+1 < n; v += 2 {
		edges = append(edges, [2]int{v, v + 1})
	}
	return FromEdges(n, edges)
}

func TestMISDegreeOrderOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))

	t.Run("adversaries", func(t *testing.T) {
		cases := map[string]*Undirected{
			"empty":             FromEdges(0, nil),
			"single-vertex":     FromEdges(1, nil),
			"edgeless-ties":     FromEdges(23, nil), // every vertex isolated: one big degree-0 tie
			"star":              FromEdges(10, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}, {0, 6}, {0, 7}, {0, 8}, {0, 9}}),
			"reverse-star":      FromEdges(10, [][2]int{{9, 0}, {9, 1}, {9, 2}, {9, 3}, {9, 4}, {9, 5}, {9, 6}, {9, 7}, {9, 8}}),
			"double-star":       FromEdges(9, [][2]int{{0, 2}, {0, 3}, {0, 4}, {1, 5}, {1, 6}, {1, 7}, {0, 1}, {1, 8}}),
			"complete":          completeGraph(9),
			"cycle-regular":     cycleGraph(40),
			"matching-ties":     matchingGraph(60),
			"path":              FromEdges(12, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {7, 8}, {8, 9}, {9, 10}, {10, 11}}),
			"isolated-vertices": FromEdges(14, [][2]int{{3, 5}, {5, 9}, {9, 3}, {10, 11}}), // triangles + edge + isolates
		}
		for label, g := range cases {
			assertSameSequence(t, g, label)
		}
	})

	t.Run("random-gnp", func(t *testing.T) {
		for trial := 0; trial < 40; trial++ {
			n := rng.Intn(90)
			g := randomGraph(rng, n, rng.Float64())
			assertSameSequence(t, g, fmt.Sprintf("gnp-trial-%d-n%d", trial, n))
		}
	})

	t.Run("random-geometric", func(t *testing.T) {
		// The production shape: unit-disk charging graphs over uniform
		// deployments at the paper's density, including radii that make
		// the graph dense (mass ties) and nearly edgeless.
		for trial := 0; trial < 20; trial++ {
			n := 30 + rng.Intn(300)
			pts := make([]geom.Point, n)
			for i := range pts {
				pts[i] = geom.Pt(rng.Float64()*100, rng.Float64()*100)
			}
			radius := []float64{1, 2.7, 8, 30}[trial%4]
			g := UnitDisk(pts, radius)
			assertSameSequence(t, g, fmt.Sprintf("geo-trial-%d-n%d-r%.1f", trial, n, radius))
		}
	})
}

// FuzzMISDegreeOrder fuzzes arbitrary graphs against the sequence-equality
// oracle: the bucket queue and the rescan reference must agree pick for
// pick under both degree orders. Run in CI as a 10s smoke.
func FuzzMISDegreeOrder(f *testing.F) {
	f.Add(uint8(0), []byte{})
	f.Add(uint8(1), []byte{})
	f.Add(uint8(7), []byte{0, 1, 1, 2, 2, 3})
	f.Add(uint8(12), []byte{0, 1, 0, 2, 0, 3, 0, 4, 0, 5})
	f.Add(uint8(40), bytes.Repeat([]byte{3, 9, 17, 4}, 20))
	f.Add(uint8(64), []byte{255, 254, 253, 252, 1, 2, 3, 4, 9, 9, 8, 8})
	f.Fuzz(func(t *testing.T, n uint8, data []byte) {
		nv := int(n) % 64
		var edges [][2]int
		for i := 0; i+1 < len(data); i += 2 {
			u, v := int(data[i])%max(nv, 1), int(data[i+1])%max(nv, 1)
			if u != v && nv > 0 {
				edges = append(edges, [2]int{u, v})
			}
		}
		g := FromEdges(nv, edges) // dedups both orientations
		for _, wantMin := range []bool{true, false} {
			bucket, rescan := degreeSequences(g, wantMin)
			if !slices.Equal(bucket, rescan) {
				t.Fatalf("wantMin=%v: sequences diverge on n=%d edges=%v\nbucket: %v\nrescan: %v",
					wantMin, nv, edges, bucket, rescan)
			}
		}
	})
}

// BenchmarkMISDegree pits the two selection engines on a production-shaped
// unit-disk graph (the paper's density). The rescan is Θ(n·|MIS|); the
// bucket queue is near-linear.
func BenchmarkMISDegree(b *testing.B) {
	for _, n := range []int{1200, 10000} {
		rng := rand.New(rand.NewSource(1))
		side := 0.0
		for side*side*0.12 < float64(n) {
			side += 1
		}
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(rng.Float64()*side, rng.Float64()*side)
		}
		g := UnitDisk(pts, 2.7)
		b.Run(fmt.Sprintf("bucket/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = MaximalIndependentSetWith(g, MISMaxDegree, MISConfig{})
			}
		})
		b.Run(fmt.Sprintf("rescan/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = misByDegreeRescan(g, false)
			}
		})
	}
}
