// Package mst computes minimum spanning trees over complete Euclidean
// graphs and explicit neighbor graphs. MSTs are the backbone of the TSP
// approximations used by the K-minMax closed-tour subroutine (step 5 of
// Algorithm Appro) and the one-to-one K-minMax baseline.
package mst

import (
	"math"

	"repro/internal/geom"
)

// Edge is a weighted undirected edge.
type Edge struct {
	U, V int
	W    float64
}

// Tree is a spanning tree (or forest) given as a parent array rooted at
// Root: Parent[Root] == -1 and Parent[v] is v's parent, or -1 for the
// roots of components Root does not reach. Weight is the total edge
// weight.
type Tree struct {
	Root   int
	Parent []int
	Weight float64
}

// Len returns the number of vertices in the tree.
func (t *Tree) Len() int { return len(t.Parent) }

// PreorderDFS returns the vertices of Root's tree in depth-first preorder
// starting at the root, visiting children in ascending index order. This
// is the walk used by the MST-doubling TSP approximation.
func (t *Tree) PreorderDFS() []int {
	n := t.Len()
	if n == 0 {
		return nil
	}
	// The children lists in CSR form, by a counting sort of v on
	// Parent[v]: counts land in off[p+2], their prefix sums make off[p+1]
	// the start of p's list, and the fill advances it to the end, which
	// leaves p's children in child[off[p]:off[p+1]]. Scanning v upwards
	// fills each list in ascending order.
	off := make([]int, n+2)
	for _, p := range t.Parent {
		if p >= 0 {
			off[p+2]++
		}
	}
	for i := 2; i < len(off); i++ {
		off[i] += off[i-1]
	}
	child := make([]int, off[n+1])
	for v, p := range t.Parent {
		if p >= 0 {
			child[off[p+1]] = v
			off[p+1]++
		}
	}
	order := make([]int, 0, n)
	// Iterative DFS; push children in reverse so lowest index pops first.
	// Every vertex has one parent, so none is pushed twice.
	stack := []int{t.Root}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		order = append(order, v)
		for i := off[v+1] - 1; i >= off[v]; i-- {
			stack = append(stack, child[i])
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
	pq := primHeap{{v: root, d: 0}}
	total := 0.0
	reached := 0
	next := 0 // monotone scan cursor for restart seeds
	for {
		for len(pq) > 0 {
			it := pq.pop()
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
					pq.push(primItem{v: wv, d: d})
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
		pq.push(primItem{v: next, d: 0})
	}
	return parent, total
}

type primItem struct {
	v int
	d float64
}

// primHeap is a binary min-heap of primItems on d. push and pop make
// exactly the comparisons and moves of container/heap's Push and Pop
// (a swap chain is a hole moving the other way), so items of equal d pop
// in the same order as they would from a container/heap; the items are
// just not boxed into interfaces.
type primHeap []primItem

func (h *primHeap) push(it primItem) {
	*h = append(*h, it)
	s := *h
	j := len(s) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !(it.d < s[i].d) {
			break
		}
		s[j] = s[i]
		j = i
	}
	s[j] = it
}

func (h *primHeap) pop() primItem {
	s := *h
	n := len(s) - 1
	top, x := s[0], s[n]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && s[j2].d < s[j].d {
			j = j2
		}
		if !(s[j].d < x.d) {
			break
		}
		s[i] = s[j]
		i = j
	}
	s[i] = x
	*h = s[:n]
	return top
}
