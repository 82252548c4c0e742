package tsp

import (
	"context"
	"math"
	"slices"

	"repro/internal/geom"
	"repro/internal/mst"
	"repro/internal/obs"
)

// NearestNeighbor builds a tour by repeatedly moving to the closest
// unvisited point, starting at start. O(n^2).
func NearestNeighbor(pts []geom.Point, start int) Tour {
	n := len(pts)
	if n == 0 || start < 0 || start >= n {
		return Tour{}
	}
	order := make([]int, 0, n)
	visited := make([]bool, n)
	cur := start
	visited[cur] = true
	order = append(order, cur)
	for len(order) < n {
		best, bestD := -1, math.Inf(1)
		for v := 0; v < n; v++ {
			if visited[v] {
				continue
			}
			if d := geom.Dist(pts[cur], pts[v]); d < bestD {
				best, bestD = v, d
			}
		}
		visited[best] = true
		order = append(order, best)
		cur = best
	}
	return Tour{Order: order}
}

// MSTApprox builds a tour by the classic MST-doubling construction: compute
// the Euclidean MST rooted at start and shortcut its preorder walk. The
// resulting tour is at most twice the optimal TSP tour length (triangle
// inequality). The MST construction is recorded under the kminmax/mst span
// when ctx carries a tracer.
func MSTApprox(ctx context.Context, pts []geom.Point, start int) Tour {
	tree := buildMST(ctx, pts, start)
	if tree == nil {
		return Tour{}
	}
	return Tour{Order: tree.PreorderDFS()}
}

// buildMST runs the grid-pruned exact MST kernel under the kminmax/mst
// span of any tracer in ctx.
func buildMST(ctx context.Context, pts []geom.Point, start int) *mst.Tree {
	defer obs.FromContext(ctx).Start(obs.StageKMinMaxMST).End()
	return mst.EuclideanSparse(pts, start)
}

// Christofides builds a tour in the style of Christofides' algorithm: MST,
// then a matching on the odd-degree MST vertices, then an Euler circuit of
// the union, shortcut to a Hamiltonian tour. The odd-vertex matching here
// is a nearest-available greedy (greedyMatchingSparse) rather than an
// exact minimum-weight perfect matching, so Christofides' 1.5 guarantee
// does not carry over; in practice it produces noticeably shorter tours
// than MSTApprox. The MST and the matching are recorded under the
// kminmax/mst and kminmax/match spans when ctx carries a tracer.
func Christofides(ctx context.Context, pts []geom.Point, start int) Tour {
	n := len(pts)
	if n == 0 || start < 0 || start >= n {
		return Tour{}
	}
	if n <= 2 {
		order := make([]int, n)
		for i := range order {
			order[i] = (start + i) % n
		}
		return Tour{Order: order}
	}
	tree := buildMST(ctx, pts, start)
	// Multigraph edge list: MST edges plus matching edges.
	edges := make([][2]int, 0, n+n/2)
	degree := make([]int, n)
	addEdge := func(u, v int) {
		edges = append(edges, [2]int{u, v})
		degree[u]++
		degree[v]++
	}
	for v, p := range tree.Parent {
		if p >= 0 {
			addEdge(v, p)
		}
	}
	// Odd-degree vertices; there is always an even number of them.
	var odd []int
	for v := 0; v < n; v++ {
		if degree[v]%2 == 1 {
			odd = append(odd, v)
		}
	}
	msp := obs.FromContext(ctx).Start(obs.StageKMinMaxMatch)
	match := greedyMatchingSparse(pts, odd)
	msp.End()
	for _, e := range match {
		addEdge(e[0], e[1])
	}
	circuit := eulerCircuit(n, degree, edges, start)
	// Shortcut repeated vertices.
	order := make([]int, 0, n)
	seen := make([]bool, n)
	for _, v := range circuit {
		if !seen[v] {
			seen[v] = true
			order = append(order, v)
		}
	}
	return Tour{Order: order}
}

// greedyMatchingSparse pairs up the given vertices by scanning them in
// ascending order and matching each still-unmatched vertex to its nearest
// still-unmatched partner, found by grid ring expansion — O(o) bounded
// searches instead of the O(o^2 log o) candidate-pair slab a sorted
// shortest-edge-first greedy builds. len(odd) must be even. The pairing
// is deterministic: ascending scan, lowest-index distance ties.
func greedyMatchingSparse(pts []geom.Point, odd []int) [][2]int {
	if len(odd) < 2 {
		return nil
	}
	oddPts := make([]geom.Point, len(odd))
	for i, v := range odd {
		oddPts[i] = pts[v]
	}
	grid := geom.NewGrid(oddPts, geom.CellFor(geom.Bounds(oddPts), len(odd)))
	matched := make([]bool, len(odd))
	unmatched := func(i int) bool { return !matched[i] }
	out := make([][2]int, 0, len(odd)/2)
	for i := range odd {
		if matched[i] {
			continue
		}
		matched[i] = true // exclude i itself from its own search
		j, _ := grid.NearestWhere(oddPts[i], math.Inf(1), unmatched)
		if j < 0 {
			// Unreachable for even inputs with finite coordinates; leave i
			// unmatched rather than loop.
			matched[i] = false
			break
		}
		matched[j] = true
		out = append(out, [2]int{odd[i], odd[j]})
	}
	return out
}

// eulerCircuit returns an Eulerian circuit of the connected multigraph
// given by its edge list (each edge once; degree is the resulting degree
// array) starting at start, using Hierholzer's algorithm. Every vertex
// must have even degree.
//
// Half-edges live in a CSR arena: each edge contributes an arc to both
// endpoints, packed as partner<<32|edgeID. Sorting every vertex's arc
// segment makes "first arc whose edge is unused" equal to "lowest pending
// partner" — the deterministic pick the earlier per-vertex multiset
// implementation made — while a monotone head pointer per vertex keeps the
// whole walk O(m log m) with O(1) allocations. (Skipped arcs stay used
// forever, so heads never need to back up.)
func eulerCircuit(n int, degree []int, edges [][2]int, start int) []int {
	off := make([]int32, n+1)
	for v := 0; v < n; v++ {
		off[v+1] = off[v] + int32(degree[v])
	}
	arcs := make([]int64, off[n])
	cur := append(make([]int32, 0, n), off[:n]...)
	for id, e := range edges {
		u, v := e[0], e[1]
		arcs[cur[u]] = int64(v)<<32 | int64(id)
		cur[u]++
		arcs[cur[v]] = int64(u)<<32 | int64(id)
		cur[v]++
	}
	for v := 0; v < n; v++ {
		slices.Sort(arcs[off[v]:off[v+1]])
	}
	used := make([]bool, len(edges))
	head := cur[:0] // reuse as head pointers; cur is dead after the fill
	head = append(head, off[:n]...)
	circuit := make([]int, 0, len(arcs)/2+1)
	stack := make([]int, 0, len(arcs)/2+1)
	stack = append(stack, start)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		h := head[v]
		for h < off[v+1] && used[arcs[h]&0xffffffff] {
			h++
		}
		head[v] = h
		if h == off[v+1] {
			circuit = append(circuit, v)
			stack = stack[:len(stack)-1]
			continue
		}
		a := arcs[h]
		used[a&0xffffffff] = true
		stack = append(stack, int(a>>32))
	}
	// Reverse so the circuit starts at start.
	for i, j := 0, len(circuit)-1; i < j; i, j = i+1, j-1 {
		circuit[i], circuit[j] = circuit[j], circuit[i]
	}
	return circuit
}
