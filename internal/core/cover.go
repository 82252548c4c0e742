package core

import (
	"sort"

	"repro/internal/geom"
	"repro/internal/graph"
)

// Coverage answers N_c+(v), the points within gamma of point v (v
// included), and the stop-conflict test built on it: stops at u and v may
// not charge at the same time when N_c+(u) and N_c+(v) share a point, the
// test that defines the auxiliary graph H in step 3 of Algorithm 1. The
// executor, the recovery engine and the simulator's independent dispatch
// all ask it. Verify keeps its own copy of the rule on purpose: it is the
// independent check of what Coverage enforces.
//
// The grid is built on the first cover query and cover sets are cached
// per point, so a caller whose stops never come within 2*gamma pays for
// neither. Execute asks for a handful of cover sets per plan, so the
// cache is a map rather than a table over all points.
type Coverage struct {
	pts   []geom.Point
	gamma float64
	grid  *geom.Grid
	cache map[int][]int
}

// NewCoverage indexes pts at charging radius gamma.
func NewCoverage(pts []geom.Point, gamma float64) *Coverage {
	return &Coverage{pts: pts, gamma: gamma}
}

// Cover returns the ascending indices of the points within gamma of point
// v, v included. The returned slice is cached and must not be modified.
func (c *Coverage) Cover(v int) []int {
	if c.grid == nil {
		c.grid = geom.NewGrid(c.pts, c.gamma)
		c.cache = make(map[int][]int)
	}
	if cs, ok := c.cache[v]; ok {
		return cs
	}
	cs := c.grid.Neighbors(c.pts[v], c.gamma, nil)
	sort.Ints(cs)
	c.cache[v] = cs
	return cs
}

// Conflict reports whether stops at points a and b must not charge at the
// same time: they lie within 2*gamma and some point is within gamma of
// both.
func (c *Coverage) Conflict(a, b int) bool {
	if geom.Dist(c.pts[a], c.pts[b]) > 2*c.gamma {
		return false
	}
	return graph.SortedIntersect(c.Cover(a), c.Cover(b))
}
