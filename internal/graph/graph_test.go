package graph

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
)

func TestUndirectedBasics(t *testing.T) {
	if g := FromEdges(4, nil); g.Len() != 4 || g.NumEdges() != 0 {
		t.Fatalf("empty graph: Len=%d NumEdges=%d", g.Len(), g.NumEdges())
	}
	// Duplicate edges (either orientation) collapse.
	g := FromEdges(4, [][2]int{{0, 1}, {1, 2}, {0, 1}, {1, 0}})
	if g.NumEdges() != 2 {
		t.Errorf("NumEdges = %d, want 2", g.NumEdges())
	}
	if !hasEdge(g, 0, 1) || !hasEdge(g, 1, 0) || !hasEdge(g, 1, 2) {
		t.Error("edges {0,1} and {1,2} should be there in both directions")
	}
	if hasEdge(g, 0, 2) {
		t.Error("edge {0,2} should not be there")
	}
	if g.Degree(1) != 2 || g.Degree(3) != 0 {
		t.Errorf("degrees wrong: deg(1)=%d deg(3)=%d", g.Degree(1), g.Degree(3))
	}
	if g.MaxDegree() != 2 {
		t.Errorf("MaxDegree = %d, want 2", g.MaxDegree())
	}
}

// hasEdge reports whether the edge {u, v} is in g.
func hasEdge(g *Undirected, u, v int) bool {
	for _, w := range g.Neighbors(u) {
		if int(w) == v {
			return true
		}
	}
	return false
}

func TestFromEdgesPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		u, v int
	}{
		{"self loop", 0, 0},
		{"u out of range", -1, 1},
		{"v out of range", 0, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("FromEdges with (%d,%d) did not panic", tc.u, tc.v)
				}
			}()
			FromEdges(2, [][2]int{{tc.u, tc.v}})
		})
	}
}

// referenceAdjacency builds per-vertex adjacency lists by incremental
// append — the representation the CSR builders replaced — running the
// same pair-once grid loops, so both the edge sets and the within-row
// neighbor order of the frozen builders can be checked exactly.
func referenceAdjacency(n int, pairs func(emit func(u, v int))) [][]int32 {
	adj := make([][]int32, n)
	pairs(func(u, v int) {
		adj[u] = append(adj[u], int32(v))
		adj[v] = append(adj[v], int32(u))
	})
	return adj
}

func checkAgainstReference(t *testing.T, g *Undirected, ref [][]int32) {
	t.Helper()
	if g.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", g.Len(), len(ref))
	}
	for u := range ref {
		got := g.Neighbors(u)
		if len(got) != len(ref[u]) {
			t.Fatalf("vertex %d: %d neighbors, want %d", u, len(got), len(ref[u]))
		}
		for i := range got {
			if got[i] != ref[u][i] {
				t.Fatalf("vertex %d: neighbor order diverged at %d: got %v, want %v",
					u, i, got, ref[u])
			}
		}
	}
}

// cellOrder enumerates neighbours the way geom.Grid orders them, without
// using the grid: the points within r of a query, sorted by (cell row,
// cell column, index) over square cells of the given size anchored at the
// points' bounding box. A grid that reorders its results therefore
// changes the CSR rows but not this reference.
type cellOrder struct {
	pts    []geom.Point
	cx, cy []float64
}

func newCellOrder(t *testing.T, pts []geom.Point, cell float64) *cellOrder {
	t.Helper()
	o := &cellOrder{pts: pts}
	if len(pts) == 0 {
		return o
	}
	b := geom.Bounds(pts)
	// The grid coarsens its cells past 2^26 of them; the fixtures stay
	// below that so the requested size is the one in use.
	if (math.Floor(b.Width()/cell)+1)*(math.Floor(b.Height()/cell)+1) > 1<<26 {
		t.Fatalf("fixture needs more than 2^26 cells of size %v", cell)
	}
	for _, p := range pts {
		o.cx = append(o.cx, math.Floor((p.X-b.Min.X)/cell))
		o.cy = append(o.cy, math.Floor((p.Y-b.Min.Y)/cell))
	}
	return o
}

// neighborsOf returns the points within r of point u other than u, in
// grid order, with u dropped as geom.Grid.NeighborsOf drops it: the last
// entry moves into its slot.
func (o *cellOrder) neighborsOf(u int, r float64) []int {
	var out []int
	for v, p := range o.pts {
		if geom.Within(o.pts[u], p, r) {
			out = append(out, v)
		}
	}
	sort.SliceStable(out, func(a, b int) bool {
		i, j := out[a], out[b]
		if o.cy[i] != o.cy[j] {
			return o.cy[i] < o.cy[j]
		}
		return o.cx[i] < o.cx[j]
	})
	for j, v := range out {
		if v == u {
			out[j] = out[len(out)-1]
			return out[:len(out)-1]
		}
	}
	return out
}

// farClusters draws n points in two Gaussian clusters of sigma 3 m whose
// centres are 5 km apart, so a grid at a cell of a few metres has far
// more cells than points and hashes them.
func farClusters(rng *rand.Rand, n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		c := float64(i%2) * 3535.5
		pts[i] = geom.Pt(c+rng.NormFloat64()*3, c+rng.NormFloat64()*3)
	}
	return pts
}

// TestUnitDiskCSRMatchesReferenceOrder property-tests that the two-pass
// CSR UnitDisk reproduces the incremental builder's adjacency byte for
// byte — including within-row neighbor order, which downstream tiebreaks
// (latestNeighborFinish in core) observe. The last trial puts the points
// in two far-apart clusters.
func TestUnitDiskCSRMatchesReferenceOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 26; trial++ {
		n := rng.Intn(300)
		side := 5 + rng.Float64()*60
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(rng.Float64()*side, rng.Float64()*side)
		}
		r := 0.5 + rng.Float64()*6
		if trial == 25 {
			pts, r = farClusters(rng, 300), 2.7
		}
		g := UnitDisk(pts, r)
		order := newCellOrder(t, pts, r)
		ref := referenceAdjacency(len(pts), func(emit func(u, v int)) {
			for u := range pts {
				for _, v := range order.neighborsOf(u, r) {
					if v > u {
						emit(u, v)
					}
				}
			}
		})
		checkAgainstReference(t, g, ref)
	}
}

// TestIntersectionGraphCSRMatchesReferenceOrder does the same for the
// auxiliary graph H: candidate pairs in grid order, accepted by the exact
// cover-set intersection condition, appended incrementally.
func TestIntersectionGraphCSRMatchesReferenceOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 26; trial++ {
		n := rng.Intn(250)
		side := 5 + rng.Float64()*50
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(rng.Float64()*side, rng.Float64()*side)
		}
		r := 0.5 + rng.Float64()*4
		if trial == 25 {
			pts, r = farClusters(rng, 250), 2.7
		}
		var nodes []int
		for i := range pts {
			if rng.Float64() < 0.4 {
				nodes = append(nodes, i)
			}
		}
		h := IntersectionGraph(pts, nodes, r)
		coverSets := make([][]int, len(nodes))
		for i, nd := range nodes {
			for v, p := range pts {
				if geom.Within(pts[nd], p, r) {
					coverSets[i] = append(coverSets[i], v)
				}
			}
		}
		nodePts := make([]geom.Point, len(nodes))
		for i, nd := range nodes {
			nodePts[i] = pts[nd]
		}
		order := newCellOrder(t, nodePts, 2*r)
		ref := referenceAdjacency(len(nodes), func(emit func(u, v int)) {
			for i := range nodes {
				for _, j := range order.neighborsOf(i, 2*r) {
					if j > i && SortedIntersect(coverSets[i], coverSets[j]) {
						emit(i, j)
					}
				}
			}
		})
		checkAgainstReference(t, h, ref)
	}
}

func TestUnitDisk(t *testing.T) {
	// Four points on a line spaced 1 apart; radius 1 connects only
	// consecutive pairs, radius 2 also skips one.
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(2, 0), geom.Pt(3, 0)}
	g1 := UnitDisk(pts, 1)
	if g1.NumEdges() != 3 {
		t.Errorf("radius 1: NumEdges = %d, want 3", g1.NumEdges())
	}
	g2 := UnitDisk(pts, 2)
	if g2.NumEdges() != 5 {
		t.Errorf("radius 2: NumEdges = %d, want 5", g2.NumEdges())
	}
	if g := UnitDisk(nil, 1); g.Len() != 0 {
		t.Error("UnitDisk(nil) should be empty")
	}
	if g := UnitDisk(pts, -1); g.NumEdges() != 0 {
		t.Error("negative radius should give no edges")
	}
}

func TestUnitDiskMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(200)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(rng.Float64()*50, rng.Float64()*50)
		}
		r := 0.5 + rng.Float64()*8
		g := UnitDisk(pts, r)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				want := geom.Within(pts[u], pts[v], r)
				if got := hasEdge(g, u, v); got != want {
					t.Fatalf("trial %d: edge (%d,%d) = %v, want %v (d=%v r=%v)",
						trial, u, v, got, want, geom.Dist(pts[u], pts[v]), r)
				}
			}
		}
	}
}

func TestIntersectionGraph(t *testing.T) {
	// Sensors: two clusters. Nodes u=0 at (0,0) and v=3 at (1.8,0) with
	// radius 1: disks overlap geometrically, and sensor 1 at (0.9,0) is in
	// both coverage sets, so H must have the edge. Node w=4 at (5,0) shares
	// nothing.
	pts := []geom.Point{
		geom.Pt(0, 0),   // 0: node u
		geom.Pt(0.9, 0), // 1: shared sensor
		geom.Pt(2.2, 0), // 2: only near v
		geom.Pt(1.8, 0), // 3: node v
		geom.Pt(5, 0),   // 4: node w
	}
	h := IntersectionGraph(pts, []int{0, 3, 4}, 1)
	if h.Len() != 3 {
		t.Fatalf("H.Len = %d", h.Len())
	}
	if !hasEdge(h, 0, 1) {
		t.Error("expected edge between nodes 0 and 3 (shared sensor)")
	}
	if hasEdge(h, 0, 2) || hasEdge(h, 1, 2) {
		t.Error("node at (5,0) should be isolated in H")
	}
}

func TestIntersectionGraphNoSharedSensor(t *testing.T) {
	// Two nodes whose disks geometrically overlap but with NO sensor in
	// the shared lens: the paper's condition N_c+(u) ∩ N_c+(v) ≠ ∅ is on
	// sensor sets, so there must be no edge.
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1.9, 0)}
	h := IntersectionGraph(pts, []int{0, 1}, 1)
	if hasEdge(h, 0, 1) {
		t.Error("no shared sensor: H should have no edge")
	}
}

func TestIntersectionGraphEmpty(t *testing.T) {
	if h := IntersectionGraph(nil, nil, 1); h.Len() != 0 {
		t.Error("empty inputs should give empty graph")
	}
}

// FromEdges builds the graph on n vertices containing the given edges.
// Duplicate edges (in either orientation) are collapsed. It panics on
// out-of-range vertices or self-loops. Adjacency lists come out ascending.
func FromEdges(n int, edges [][2]int) *Undirected {
	if n < 0 {
		n = 0
	}
	// Materialize both directed arcs per edge, then sort+dedup: the CSR
	// fill becomes a single linear sweep and rows come out sorted.
	arcs := make([]int64, 0, 2*len(edges))
	for _, e := range edges {
		u, v := e[0], e[1]
		if u < 0 || u >= n || v < 0 || v >= n {
			panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, n))
		}
		if u == v {
			panic(fmt.Sprintf("graph: self-loop at %d", u))
		}
		arcs = append(arcs, int64(u)<<32|int64(v), int64(v)<<32|int64(u))
	}
	sort.Slice(arcs, func(i, j int) bool { return arcs[i] < arcs[j] })
	g := &Undirected{off: make([]int32, n+1), adj: make([]int32, 0, len(arcs))}
	var prev int64 = -1
	for _, a := range arcs {
		if a == prev {
			continue
		}
		prev = a
		g.adj = append(g.adj, int32(a&0xffffffff))
		g.off[a>>32+1]++
	}
	for i := 0; i < n; i++ {
		g.off[i+1] += g.off[i]
	}
	g.edges = len(g.adj) / 2
	return g
}
