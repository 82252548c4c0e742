// Package unionfind implements a disjoint-set forest with union by rank and
// path compression, used by Kruskal's MST and by clustering utilities.
package unionfind

// DSU is a disjoint-set union structure over elements 0..n-1.
type DSU struct {
	parent []int32
	rank   []int8
	sets   int
}

// New returns a DSU with n singleton sets.
func New(n int) *DSU {
	if n < 0 {
		n = 0
	}
	d := &DSU{
		parent: make([]int32, n),
		rank:   make([]int8, n),
		sets:   n,
	}
	for i := range d.parent {
		d.parent[i] = int32(i)
	}
	return d
}

// Sets returns the current number of disjoint sets.
func (d *DSU) Sets() int { return d.sets }

// Find returns the representative of x's set, compressing paths as it goes.
func (d *DSU) Find(x int) int {
	root := x
	for int(d.parent[root]) != root {
		root = int(d.parent[root])
	}
	for int(d.parent[x]) != root {
		x, d.parent[x] = int(d.parent[x]), int32(root)
	}
	return root
}

// Union merges the sets containing x and y. It reports whether a merge
// happened (false if they were already in the same set).
func (d *DSU) Union(x, y int) bool {
	rx, ry := d.Find(x), d.Find(y)
	if rx == ry {
		return false
	}
	if d.rank[rx] < d.rank[ry] {
		rx, ry = ry, rx
	}
	d.parent[ry] = int32(rx)
	if d.rank[rx] == d.rank[ry] {
		d.rank[rx]++
	}
	d.sets--
	return true
}
