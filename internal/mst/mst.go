// Package mst computes minimum spanning trees over complete Euclidean
// graphs and explicit neighbor graphs. MSTs are the backbone of the TSP
// approximations used by the K-minMax closed-tour subroutine (step 5 of
// Algorithm Appro) and the one-to-one K-minMax baseline.
package mst

import (
	"container/heap"
	"math"
	"sort"

	"repro/internal/geom"
)

// Edge is a weighted undirected edge.
type Edge struct {
	U, V int
	W    float64
}

// Tree is a spanning tree (or forest) given as a parent array rooted at
// Root: Parent[Root] == -1 and Parent[v] is v's parent. Adj holds the
// children lists for traversal. Weight is the total edge weight.
type Tree struct {
	Root   int
	Parent []int
	Adj    [][]int
	Weight float64
}

// Len returns the number of vertices in the tree.
func (t *Tree) Len() int { return len(t.Parent) }

// PreorderDFS returns the vertices of t in depth-first preorder starting at
// the root, visiting children in ascending index order. This is the walk
// used by the MST-doubling TSP approximation.
func (t *Tree) PreorderDFS() []int {
	if t.Len() == 0 {
		return nil
	}
	order := make([]int, 0, t.Len())
	// Iterative DFS; push children in reverse so lowest index pops first.
	stack := []int{t.Root}
	seen := make([]bool, t.Len())
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[v] {
			continue
		}
		seen[v] = true
		order = append(order, v)
		children := t.Adj[v]
		for i := len(children) - 1; i >= 0; i-- {
			if !seen[children[i]] {
				stack = append(stack, children[i])
			}
		}
	}
	return order
}

// primForest is EuclideanSparse's heap-Prim engine. It grows a tree from
// root over the neighbor graph, then re-seeds at the lowest-index
// unreached vertex until every vertex is reached, producing a minimum
// spanning forest of the neighbor graph (parent -1 marks the component
// roots). It returns the parent forest and the total weight of its edges.
func primForest(pts []geom.Point, neighbors func(v int) []int32, root int) ([]int, float64) {
	n := len(pts)
	parent := make([]int, n)
	dist := make([]float64, n)
	inTree := make([]bool, n)
	for i := range parent {
		parent[i] = -1
		dist[i] = math.Inf(1)
	}
	dist[root] = 0
	pq := &primHeap{items: []primItem{{v: root, d: 0}}}
	total := 0.0
	reached := 0
	next := 0 // monotone scan cursor for restart seeds
	for {
		for pq.Len() > 0 {
			it := heap.Pop(pq).(primItem)
			if inTree[it.v] {
				continue
			}
			inTree[it.v] = true
			reached++
			total += it.d
			for _, w := range neighbors(it.v) {
				wv := int(w)
				if inTree[wv] {
					continue
				}
				if d := geom.Dist(pts[it.v], pts[wv]); d < dist[wv] {
					dist[wv] = d
					parent[wv] = it.v
					heap.Push(pq, primItem{v: wv, d: d})
				}
			}
		}
		if reached == n {
			break
		}
		for next < n && inTree[next] {
			next++
		}
		dist[next] = 0
		heap.Push(pq, primItem{v: next, d: 0})
	}
	return parent, total
}

func buildTree(root int, parent []int, weight float64) *Tree {
	adj := make([][]int, len(parent))
	for v, p := range parent {
		if p >= 0 {
			adj[p] = append(adj[p], v)
		}
	}
	for _, children := range adj {
		sort.Ints(children)
	}
	return &Tree{Root: root, Parent: parent, Adj: adj, Weight: weight}
}

type primItem struct {
	v int
	d float64
}

type primHeap struct{ items []primItem }

func (h *primHeap) Len() int           { return len(h.items) }
func (h *primHeap) Less(i, j int) bool { return h.items[i].d < h.items[j].d }
func (h *primHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *primHeap) Push(x interface{}) { h.items = append(h.items, x.(primItem)) }
func (h *primHeap) Pop() interface{} {
	old := h.items
	n := len(old)
	it := old[n-1]
	h.items = old[:n-1]
	return it
}
