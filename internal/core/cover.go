package core

import (
	"sort"

	"repro/internal/geom"
)

// coverGrid answers N_c+(v) queries — the request indices within gamma of
// a request's position — with per-node caching.
type coverGrid struct {
	in    *Instance
	grid  *geom.Grid
	cache map[int][]int
}

func newCoverGrid(in *Instance) *coverGrid {
	return &coverGrid{
		in:    in,
		grid:  geom.NewGrid(in.Positions(), in.Gamma),
		cache: make(map[int][]int),
	}
}

// cover returns the ascending request indices within gamma of request
// node's position, including node itself. The returned slice is cached and
// must not be modified.
func (c *coverGrid) cover(node int) []int {
	if cs, ok := c.cache[node]; ok {
		return cs
	}
	cs := c.grid.Neighbors(c.in.Requests[node].Pos, c.in.Gamma, nil)
	sort.Ints(cs)
	c.cache[node] = cs
	return cs
}
