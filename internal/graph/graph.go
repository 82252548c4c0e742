// Package graph provides the undirected-graph machinery the scheduling
// algorithms are built on: frozen CSR adjacency graphs, unit-disk graph
// construction over point sets, maximal independent sets (the heart of
// Algorithm Appro's steps 2 and 4), and basic traversal utilities.
package graph

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/geom"
)

// Undirected is a simple undirected graph on vertices 0..n-1, stored as a
// frozen compressed-sparse-row (CSR) adjacency: one flat arc array plus
// per-vertex offsets. Graphs are immutable once built — construct them with
// UnitDisk, IntersectionGraph or IntersectionOf, or FromEdges. The flat
// layout halves memory versus per-vertex slices (no slice headers, no
// growth slack) and makes neighbor scans a single contiguous read.
type Undirected struct {
	off   []int32 // len n+1; vertex u's arcs live in adj[off[u]:off[u+1]]
	adj   []int32 // len 2*edges; both directions of every edge
	edges int
}

// emptyGraph returns a graph on n vertices with no edges.
func emptyGraph(n int) *Undirected {
	if n < 0 {
		n = 0
	}
	return &Undirected{off: make([]int32, n+1)}
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

// Len returns the number of vertices.
func (g *Undirected) Len() int { return len(g.off) - 1 }

// NumEdges returns the number of edges.
func (g *Undirected) NumEdges() int { return g.edges }

// Degree returns the degree of vertex u.
func (g *Undirected) Degree(u int) int { return int(g.off[u+1] - g.off[u]) }

// MaxDegree returns the maximum vertex degree, or 0 for an empty graph.
func (g *Undirected) MaxDegree() int {
	max := 0
	for u := 0; u < g.Len(); u++ {
		if d := g.Degree(u); d > max {
			max = d
		}
	}
	return max
}

// Neighbors returns the adjacency list of u. The returned slice is owned by
// the graph and must not be modified.
func (g *Undirected) Neighbors(u int) []int32 { return g.adj[g.off[u]:g.off[u+1]] }

// fromArcs freezes a CSR graph from per-vertex degrees and an emit callback.
// emit is invoked once and must call put(u, v) for each directed arc exactly
// as counted in deg; put writes v into u's row at the next free cursor, so
// arc emission order fixes the row order.
func fromArcs(n int, deg []int32, emit func(put func(u, v int))) *Undirected {
	total := int64(0)
	for _, d := range deg {
		total += int64(d)
	}
	if total > math.MaxInt32 {
		panic(fmt.Sprintf("graph: %d arcs overflow int32 offsets", total))
	}
	off := make([]int32, n+1)
	for i, d := range deg {
		off[i+1] = off[i] + d
	}
	adj := make([]int32, total)
	cur := append([]int32(nil), off[:n]...)
	emit(func(u, v int) {
		adj[cur[u]] = int32(v)
		cur[u]++
	})
	return &Undirected{off: off, adj: adj, edges: int(total) / 2}
}

// UnitDisk builds the graph on pts with an edge between every pair at
// Euclidean distance <= radius. This is the paper's charging graph G_c when
// radius is the charging range gamma, and (with the transmission range) the
// communication graph G_s. Construction makes one spatial-grid pass: each
// vertex's query gives its whole row, which is appended to the frozen CSR
// at once. It costs O(n + m) expected time with no per-edge dedup scans.
//
// Row u holds u's lower neighbors ascending, then its upper neighbors in
// grid order — the append order of incremental construction, in which
// each pair is added once, from its lower endpoint, outer u ascending.
// u's lower neighbors are exactly the vertices whose queries found u,
// because the distance test is symmetric.
func UnitDisk(pts []geom.Point, radius float64) *Undirected {
	n := len(pts)
	if radius < 0 || n == 0 {
		return emptyGraph(n)
	}
	grid := geom.NewGrid(pts, radius)
	off := make([]int32, n+1)
	// Room for an average degree of 4 (the paper's density gives ~2.7)
	// before append grows the arena.
	adj := make([]int32, 0, 4*n)
	var buf []int
	for u := range pts {
		buf = grid.NeighborsOf(u, radius, buf)
		row := len(adj)
		for _, v := range buf {
			if v < u {
				adj = append(adj, int32(v))
			}
		}
		slices.Sort(adj[row:])
		for _, v := range buf {
			if v > u {
				adj = append(adj, int32(v))
			}
		}
		if len(adj) > math.MaxInt32 {
			panic(fmt.Sprintf("graph: %d arcs overflow int32 offsets", len(adj)))
		}
		off[u+1] = int32(len(adj))
	}
	return &Undirected{off: off, adj: adj, edges: len(adj) / 2}
}

// Covers holds one ascending set of int32 indices per vertex in a flat
// arena: vertex i's set is arena[off[i]:off[i+1]].
type Covers struct {
	off, arena []int32
}

// Of returns vertex i's set, ascending. It is owned by the arena and must
// not be modified.
func (c Covers) Of(i int) []int32 { return c.arena[c.off[i]:c.off[i+1]] }

// ClosedNeighborhoods returns the closed neighbourhood row(v) ∪ {v} of
// each vertex nodes[i] as set i of one arena, ascending. On the charging
// graph G_c = UnitDisk(pts, gamma) this is the coverage set N_c+(v), the
// points within gamma of v: UnitDisk fills row v from v's own grid query,
// and that query (Grid.NeighborsOf) is Grid.Neighbors(pts[v]) minus v
// under the same DistSq <= gamma² test, so no second grid is needed.
func (g *Undirected) ClosedNeighborhoods(nodes []int) Covers {
	c := Covers{off: make([]int32, len(nodes)+1)}
	total := len(nodes)
	for _, v := range nodes {
		total += g.Degree(v)
	}
	c.arena = make([]int32, 0, total)
	for i, v := range nodes {
		lo := len(c.arena)
		c.arena = append(c.arena, g.Neighbors(v)...)
		c.arena = append(c.arena, int32(v))
		slices.Sort(c.arena[lo:])
		c.off[i+1] = int32(len(c.arena))
	}
	return c
}

// IntersectionGraph builds the paper's auxiliary graph H over the points
// indexed by nodes: there is an edge between two nodes iff their disks of
// the given radius intersect a common point of pts, i.e. the closed
// neighborhoods N_c+(u) and N_c+(v) (taken over pts) share a sensor. For
// points in general position this is implied by distance < 2*radius, but
// the definition used here is the paper's exact set-intersection condition.
//
// nodes are indices into pts. The resulting graph has len(nodes) vertices,
// vertex i standing for pts[nodes[i]]. It queries a grid over pts for each
// node's cover set and hands them to IntersectionOf; a caller that holds
// the charging graph reads the same sets from its rows instead
// (ClosedNeighborhoods).
func IntersectionGraph(pts []geom.Point, nodes []int, radius float64) *Undirected {
	n := len(nodes)
	if radius < 0 || n == 0 {
		return emptyGraph(n)
	}
	grid := geom.NewGrid(pts, radius)
	cov := Covers{off: make([]int32, n+1)}
	nodePts := make([]geom.Point, n)
	var buf []int
	for i, nd := range nodes {
		nodePts[i] = pts[nd]
		buf = grid.Neighbors(pts[nd], radius, buf)
		lo := len(cov.arena)
		for _, u := range buf {
			cov.arena = append(cov.arena, int32(u))
		}
		slices.Sort(cov.arena[lo:])
		cov.off[i+1] = int32(len(cov.arena))
	}
	return IntersectionOf(nodePts, radius, cov)
}

// IntersectionOf builds H over the vertices at nodePts whose cover sets
// are cov: an edge joins i and j iff cov.Of(i) and cov.Of(j) share an
// element. Candidate pairs are the vertices within 2*radius of each other
// (a shared point lies within radius of both), found on one grid over
// nodePts; the set intersection runs once per candidate pair. Accepted
// pairs are buffered in discovery order, then counted and filled into the
// CSR rows, so row i holds i's lower neighbours ascending, then its upper
// ones in grid order — the append order of incremental construction.
func IntersectionOf(nodePts []geom.Point, radius float64, cov Covers) *Undirected {
	n := len(nodePts)
	if radius < 0 || n == 0 {
		return emptyGraph(n)
	}
	ngrid := geom.NewGrid(nodePts, 2*radius)
	var pairs [][2]int32
	var buf []int
	deg := make([]int32, n)
	for i := range n {
		buf = ngrid.NeighborsOf(i, 2*radius, buf)
		for _, j := range buf {
			if j <= i {
				continue
			}
			if SortedIntersect(cov.Of(i), cov.Of(j)) {
				pairs = append(pairs, [2]int32{int32(i), int32(j)})
				deg[i]++
				deg[j]++
			}
		}
	}
	return fromArcs(n, deg, func(put func(u, v int)) {
		// Discovery order reproduces incremental append order (lower
		// neighbors ascending, then upper neighbors in grid order).
		for _, p := range pairs {
			put(int(p[0]), int(p[1]))
			put(int(p[1]), int(p[0]))
		}
	})
}

// SortedIntersect reports whether two ascending slices share an element.
// On cover sets it is the stop-conflict test; core.Coverage shares it
// with H's construction.
func SortedIntersect[T int | int32](a, b []T) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return true
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return false
}
