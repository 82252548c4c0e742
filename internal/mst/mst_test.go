package mst

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/unionfind"
)

// Euclidean is the dense reference EuclideanSparse is checked against:
// the MST of the complete graph over pts with Euclidean edge weights,
// rooted at root, by Prim's algorithm in O(n^2) time. It returns nil when
// pts is empty or root is out of range.
func Euclidean(pts []geom.Point, root int) *Tree {
	n := len(pts)
	if n == 0 || root < 0 || root >= n {
		return nil
	}
	const unseen = -1
	parent := make([]int, n)
	dist := make([]float64, n)
	inTree := make([]bool, n)
	for i := range parent {
		parent[i] = unseen
		dist[i] = math.Inf(1)
	}
	dist[root] = 0
	total := 0.0
	for iter := 0; iter < n; iter++ {
		best := -1
		for v := 0; v < n; v++ {
			if !inTree[v] && (best < 0 || dist[v] < dist[best]) {
				best = v
			}
		}
		inTree[best] = true
		total += dist[best]
		for v := 0; v < n; v++ {
			if inTree[v] {
				continue
			}
			if d := geom.Dist(pts[best], pts[v]); d < dist[v] {
				dist[v] = d
				parent[v] = best
			}
		}
	}
	return &Tree{Root: root, Parent: parent, Weight: total}
}

// FromEdges is the Kruskal reference the Prim kernels are checked
// against: an MST (or minimum spanning forest, if disconnected) of the
// n-vertex graph with the given edge list. For a disconnected input only
// the component containing root becomes the returned tree; other
// components keep Parent -1.
func FromEdges(n int, edges []Edge, root int) *Tree {
	if n == 0 || root < 0 || root >= n {
		return nil
	}
	sorted := make([]Edge, len(edges))
	copy(sorted, edges)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].W < sorted[j].W })
	dsu := unionfind.New(n)
	adj := make([][]Edge, n)
	total := 0.0
	for _, e := range sorted {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n || e.U == e.V {
			continue
		}
		if dsu.Union(e.U, e.V) {
			adj[e.U] = append(adj[e.U], e)
			adj[e.V] = append(adj[e.V], Edge{U: e.V, V: e.U, W: e.W})
			total += e.W
		}
	}
	// Orient the component containing root.
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	visited := make([]bool, n)
	stack := []int{root}
	visited[root] = true
	compWeight := 0.0
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range adj[v] {
			if !visited[e.V] {
				visited[e.V] = true
				parent[e.V] = v
				compWeight += e.W
				stack = append(stack, e.V)
			}
		}
	}
	return &Tree{Root: root, Parent: parent, Weight: compWeight}
}

func TestEuclideanSmall(t *testing.T) {
	// Unit square: MST weight 3.
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(1, 1), geom.Pt(0, 1)}
	tr := Euclidean(pts, 0)
	if tr == nil {
		t.Fatal("nil tree")
	}
	if math.Abs(tr.Weight-3) > 1e-9 {
		t.Errorf("Weight = %v, want 3", tr.Weight)
	}
	if tr.Parent[tr.Root] != -1 {
		t.Error("root parent should be -1")
	}
	order := tr.PreorderDFS()
	if len(order) != 4 || order[0] != 0 {
		t.Errorf("PreorderDFS = %v", order)
	}
}

func TestEuclideanEdgeCases(t *testing.T) {
	if Euclidean(nil, 0) != nil {
		t.Error("empty pts should give nil")
	}
	if Euclidean([]geom.Point{geom.Pt(0, 0)}, 1) != nil {
		t.Error("root out of range should give nil")
	}
	tr := Euclidean([]geom.Point{geom.Pt(3, 3)}, 0)
	if tr == nil || tr.Weight != 0 || tr.Len() != 1 {
		t.Errorf("single point tree wrong: %+v", tr)
	}
}

func TestEuclideanMatchesKruskal(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 15; trial++ {
		n := 2 + rng.Intn(80)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(rng.Float64()*100, rng.Float64()*100)
		}
		var edges []Edge
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				edges = append(edges, Edge{U: u, V: v, W: geom.Dist(pts[u], pts[v])})
			}
		}
		prim := Euclidean(pts, 0)
		kruskal := FromEdges(n, edges, 0)
		if math.Abs(prim.Weight-kruskal.Weight) > 1e-6 {
			t.Fatalf("trial %d: prim=%v kruskal=%v", trial, prim.Weight, kruskal.Weight)
		}
	}
}

// TestEuclideanMatchesHeapPrim checks EuclideanSparse's heap-Prim engine,
// primForest, against the dense MST on complete candidate graphs.
func TestEuclideanMatchesHeapPrim(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(60)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(rng.Float64()*50, rng.Float64()*50)
		}
		// Complete graph as neighbor function.
		all := make([]int32, n)
		for i := range all {
			all[i] = int32(i)
		}
		neighbors := func(v int) []int32 {
			out := make([]int32, 0, n-1)
			for _, w := range all {
				if int(w) != v {
					out = append(out, w)
				}
			}
			return out
		}
		dense := Euclidean(pts, 0)
		parent, weight := primForest(pts, neighbors, 0)
		if roots := countComponents(parent); roots != 1 {
			t.Fatalf("trial %d: complete graph gave a forest of %d trees", trial, roots)
		}
		if math.Abs(dense.Weight-weight) > 1e-6 {
			t.Fatalf("trial %d: dense=%v heap=%v", trial, dense.Weight, weight)
		}
	}
}

func TestFromEdgesDisconnected(t *testing.T) {
	// Two components: {0,1} and {2,3}; root 0 spans only its component.
	edges := []Edge{{U: 0, V: 1, W: 1}, {U: 2, V: 3, W: 2}}
	tr := FromEdges(4, edges, 0)
	if tr.Parent[1] != 0 {
		t.Errorf("Parent[1] = %d, want 0", tr.Parent[1])
	}
	if tr.Parent[2] != -1 || tr.Parent[3] != -1 {
		t.Error("other component should be unreached")
	}
	if math.Abs(tr.Weight-1) > 1e-9 {
		t.Errorf("component weight = %v, want 1", tr.Weight)
	}
}

func TestFromEdgesIgnoresBadEdges(t *testing.T) {
	edges := []Edge{
		{U: 0, V: 0, W: 1},  // self loop
		{U: -1, V: 2, W: 1}, // out of range
		{U: 0, V: 9, W: 1},  // out of range
		{U: 0, V: 1, W: 5},
	}
	tr := FromEdges(2, edges, 0)
	if math.Abs(tr.Weight-5) > 1e-9 {
		t.Errorf("Weight = %v, want 5", tr.Weight)
	}
}

func TestPreorderCoversAllVertices(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	n := 50
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*100, rng.Float64()*100)
	}
	tr := Euclidean(pts, 7)
	order := tr.PreorderDFS()
	if len(order) != n {
		t.Fatalf("preorder visited %d of %d", len(order), n)
	}
	seen := make(map[int]bool, n)
	for _, v := range order {
		if seen[v] {
			t.Fatalf("vertex %d visited twice", v)
		}
		seen[v] = true
	}
	if order[0] != 7 {
		t.Errorf("preorder must start at root, got %d", order[0])
	}
}

// TestMSTWeightIsMinimal cross-checks against brute force on tiny inputs:
// every spanning tree enumerated via Cayley-style edge subsets.
func TestMSTWeightIsMinimal(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(4) // up to 5 vertices
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(rng.Float64()*10, rng.Float64()*10)
		}
		var edges []Edge
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				edges = append(edges, Edge{U: u, V: v, W: geom.Dist(pts[u], pts[v])})
			}
		}
		best := math.Inf(1)
		m := len(edges)
		for mask := 0; mask < 1<<m; mask++ {
			if popcount(mask) != n-1 {
				continue
			}
			// Check spanning via DSU-lite.
			parent := make([]int, n)
			for i := range parent {
				parent[i] = i
			}
			var find func(int) int
			find = func(x int) int {
				for parent[x] != x {
					x = parent[x]
				}
				return x
			}
			w, comps := 0.0, n
			for i, e := range edges {
				if mask&(1<<i) == 0 {
					continue
				}
				w += e.W
				ru, rv := find(e.U), find(e.V)
				if ru != rv {
					parent[ru] = rv
					comps--
				}
			}
			if comps == 1 && w < best {
				best = w
			}
		}
		got := Euclidean(pts, 0).Weight
		if math.Abs(got-best) > 1e-6 {
			t.Fatalf("trial %d: MST weight %v, brute force %v", trial, got, best)
		}
	}
}

func popcount(x int) int {
	c := 0
	for x != 0 {
		x &= x - 1
		c++
	}
	return c
}
