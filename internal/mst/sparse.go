package mst

import (
	"math"
	"sort"

	"repro/internal/geom"
	"repro/internal/unionfind"
)

// EuclideanSparse computes the MST of the complete Euclidean graph over
// pts, rooted at root, without ever materializing the O(n^2) edge set. It
// returns a tree whose total weight equals the dense O(n^2) Prim's exactly
// (when edge weights are distinct the tree itself is identical; the dense
// Prim is the oracle in the tests), so the K-minMax approximation argument
// is untouched. It returns nil when pts is empty or root is out of range.
//
// The construction has two phases:
//
//  1. Heap-driven Prim restarts over a grid-pruned candidate graph — all
//     pairs within a density-derived radius r (expected O(1) neighbors per
//     vertex) — yield a minimum spanning forest of the candidate graph.
//     Every forest edge is safe: a complete-graph cycle witnessing its
//     redundancy would consist of strictly shorter edges, all of length
//     <= r and therefore candidates themselves.
//
//  2. While the forest has multiple components, Boruvka rounds bridge
//     them: each component finds its minimum outgoing edge by per-vertex
//     ring expansion (geom.Grid.NearestWhere), bounded by the component's
//     best edge so far, so later vertices abandon the search as soon as
//     the remaining rings provably cannot beat it. A minimum outgoing
//     edge crosses the cut (component, rest) minimally, so it belongs to
//     a minimum spanning tree by the cut property; at least half the
//     components merge per round, giving O(log n) rounds. With a
//     connected candidate graph — the common case at planning densities —
//     phase 2 never runs.
//
// Expected time is O(n log n) for points at bounded density; the
// adversarial worst case (e.g. one tight cluster, where the candidate
// graph degenerates to complete) falls back to the dense bound.
func EuclideanSparse(pts []geom.Point, root int) *Tree {
	if len(pts) == 0 || root < 0 || root >= len(pts) {
		return nil
	}
	return NewCandidates(pts).MST(root)
}

// MST is EuclideanSparse over the candidate graph's points, run on c
// instead of a graph of its own. It returns nil when root is out of
// range.
func (c *Candidates) MST(root int) *Tree {
	pts, grid := c.pts, c.grid
	n := len(pts)
	if root < 0 || root >= n {
		return nil
	}
	parent, total := primForest(pts, c.Row, root)
	if countComponents(parent) == 1 {
		// The candidate graph was connected: the forest is the MST.
		return &Tree{Root: root, Parent: parent, Weight: total}
	}

	// Ring-expansion fallback: the candidate graph is disconnected (e.g.
	// two far clusters). Bridge the forest's components with exact minimum
	// outgoing edges until one remains.
	dsu := unionfind.New(n)
	for v, p := range parent {
		if p >= 0 {
			dsu.Union(v, p)
		}
	}
	var bridges []Edge
	comp := make([]int32, n)
	for dsu.Sets() > 1 {
		for i := range comp {
			comp[i] = int32(dsu.Find(i))
		}
		best := make(map[int32]Edge)
		for u := 0; u < n; u++ {
			cu := comp[u]
			bound := math.Inf(1)
			cur, ok := best[cu]
			if ok {
				bound = cur.W
			}
			j, d := grid.NearestWhere(pts[u], bound, func(i int) bool { return comp[i] != cu })
			if j < 0 {
				continue
			}
			e := Edge{U: u, V: j, W: d}
			if !ok || edgeLess(e, cur) {
				best[cu] = e
			}
		}
		roots := make([]int32, 0, len(best))
		for cr := range best {
			roots = append(roots, cr)
		}
		sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })
		merged := false
		for _, cr := range roots {
			e := best[cr]
			if dsu.Union(e.U, e.V) {
				bridges = append(bridges, e)
				total += e.W
				merged = true
			}
		}
		if !merged {
			// Only possible with degenerate (NaN) coordinates that the
			// grid cannot key; give up rather than loop forever.
			break
		}
	}

	// Re-orient the forest edges plus the bridges as one tree rooted at
	// root. The edge set is fixed, so orientation is a plain DFS.
	deg := make([]int32, n+1)
	for v, p := range parent {
		if p >= 0 {
			deg[v]++
			deg[p]++
		}
	}
	for _, e := range bridges {
		deg[e.U]++
		deg[e.V]++
	}
	offT := make([]int32, n+1)
	for v := 0; v < n; v++ {
		offT[v+1] = offT[v] + deg[v]
	}
	adjT := make([]int32, offT[n])
	cur := deg[:n]
	copy(cur, offT[:n])
	put := func(u, v int) {
		adjT[cur[u]] = int32(v)
		cur[u]++
		adjT[cur[v]] = int32(u)
		cur[v]++
	}
	for v, p := range parent {
		if p >= 0 {
			put(v, p)
		}
	}
	for _, e := range bridges {
		put(e.U, e.V)
	}
	oriented := make([]int, n)
	for i := range oriented {
		oriented[i] = -1
	}
	visited := make([]bool, n)
	visited[root] = true
	stack := append(make([]int, 0, n), root)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, wv := range adjT[offT[v]:offT[v+1]] {
			w := int(wv)
			if !visited[w] {
				visited[w] = true
				oriented[w] = v
				stack = append(stack, w)
			}
		}
	}
	return &Tree{Root: root, Parent: oriented, Weight: total}
}

// Candidates is the pruned candidate edge set EuclideanSparse's first
// phase runs on: all pairs within a radius chosen so a vertex sees a
// small constant number of neighbors at the point set's average density
// (r = geom.CellFor, which is 2*sqrt(area/n) for uniform points and
// covers ~4π ≈ 12.6 expected neighbors, enough for connectivity at
// planning densities while keeping the edge count linear). Correctness
// never depends on r, only the edge count does.
//
// The grid indexes the points at cell size r and row u is its
// NeighborsOf(u, r) query, in query order. The 2-opt's neighbour lists
// (package tsp) start from exactly that query, so a tour construction
// that runs both builds the graph once and hands it to both.
type Candidates struct {
	pts      []geom.Point
	grid     *geom.Grid
	radius   float64
	off, adj []int32
}

// NewCandidates builds the candidate graph over pts: each vertex is
// queried once and its row appended in query order; the arena starts at
// the uniform-density size and grows if the set is denser.
func NewCandidates(pts []geom.Point) *Candidates {
	n := len(pts)
	r := geom.CellFor(geom.Bounds(pts), n)
	c := &Candidates{pts: pts, grid: geom.NewGrid(pts, r), radius: r, off: make([]int32, n+1), adj: make([]int32, 0, 13*n)}
	var buf []int
	for u := range n {
		buf = c.grid.NeighborsOf(u, r, buf)
		for _, v := range buf {
			c.adj = append(c.adj, int32(v))
		}
		c.off[u+1] = int32(len(c.adj))
	}
	return c
}

// Row returns vertex u's candidate neighbours in grid query order. The
// slice is owned by the graph and must not be modified.
func (c *Candidates) Row(u int) []int32 { return c.adj[c.off[u]:c.off[u+1]] }

// Grid returns the grid the graph was queried on.
func (c *Candidates) Grid() *geom.Grid { return c.grid }

// Radius returns the query radius, which is also the grid's cell size.
func (c *Candidates) Radius() float64 { return c.radius }

// countComponents counts the trees in a parent forest: the vertices with
// parent -1 are the roots.
func countComponents(parent []int) int {
	c := 0
	for _, p := range parent {
		if p < 0 {
			c++
		}
	}
	return c
}

// edgeLess is the deterministic total order on candidate bridge edges:
// weight, then the unordered endpoint pair. Boruvka's per-component
// minima are unique under it, so rounds are reproducible.
func edgeLess(a, b Edge) bool {
	if a.W != b.W {
		return a.W < b.W
	}
	au, av := a.U, a.V
	if au > av {
		au, av = av, au
	}
	bu, bv := b.U, b.V
	if bu > bv {
		bu, bv = bv, bu
	}
	if au != bu {
		return au < bu
	}
	return av < bv
}
