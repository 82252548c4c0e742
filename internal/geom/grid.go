package geom

import "math"

// Grid is a spatial hash over a fixed point set that answers fixed-radius
// neighbor queries in expected O(1 + k) time, where k is the number of
// results. It is the workhorse behind unit-disk graph construction: building
// the charging graph G_c over n sensors costs O(n + m) instead of O(n^2).
//
// The grid is immutable after construction; rebuild it if the point set
// changes. A zero Grid is not usable — construct one with NewGrid.
type Grid struct {
	cell float64
	pts  []Point
	minX float64
	minY float64
	cols int
	rows int
	// Buckets live in one flat arena rather than a slice per cell: slot
	// maps an occupied cell's key to a slot s, and the point indices of
	// that cell are idx[off[s]:off[s+1]], ascending. Empty cells have no
	// slot. This keeps NewGrid at O(1) allocations instead of one per
	// occupied cell.
	slot map[int]int32
	off  []int32
	idx  []int32
}

// maxGridCells bounds cols*rows. Beyond it the cell-key arithmetic
// cy*cols+cx could overflow int (extreme coordinate extents with a tiny
// cell size make cols and rows each ~1e15, whose product wraps int64 and
// lands distinct cells on one key), and the bucket map would be
// pathologically sparse anyway. NewGrid coarsens the cell size until the
// grid fits; queries stay correct — cells just hold more candidates.
const maxGridCells = 1 << 26

// NewGrid indexes pts with square cells of the given size. The cell size
// should match the dominant query radius (e.g. the charging radius gamma);
// queries with other radii remain correct but scan more cells. A
// non-positive (or NaN) cell size is replaced by 1. When the point
// extents divided by the cell size would exceed maxGridCells cells, the
// cell size is doubled until the grid fits, which keys extreme
// coordinates (±1e12 and beyond) without integer overflow.
func NewGrid(pts []Point, cell float64) *Grid {
	if !(cell > 0) {
		cell = 1
	}
	g := &Grid{
		cell: cell,
		pts:  pts,
		slot: make(map[int]int32, len(pts)),
	}
	if len(pts) == 0 {
		g.cols, g.rows = 1, 1
		return g
	}
	b := Bounds(pts)
	g.minX, g.minY = b.Min.X, b.Min.Y
	// Size the grid in floats first: the integer conversion below is only
	// safe once cols*rows is known to fit.
	ex, ey := b.Max.X-b.Min.X, b.Max.Y-b.Min.Y
	fc := math.Floor(ex/g.cell) + 1
	fr := math.Floor(ey/g.cell) + 1
	for !(fc*fr <= maxGridCells) { // also catches NaN/Inf extents
		g.cell *= 2
		if math.IsInf(g.cell, 0) {
			// Degenerate extents (NaN/Inf coordinates): collapse to a
			// single cell; queries fall back to scanning it.
			fc, fr = 1, 1
			break
		}
		fc = math.Floor(ex/g.cell) + 1
		fr = math.Floor(ey/g.cell) + 1
	}
	g.cols = int(fc)
	g.rows = int(fr)
	// Two passes: assign slots and count, then fill the arena with a
	// cursor per slot. Filling in ascending point order reproduces the
	// within-bucket order incremental appends would give, which query
	// iteration (and therefore downstream deterministic tiebreaks)
	// observes.
	slots := make([]int32, len(pts))
	counts := make([]int32, 0, 64)
	for i, p := range pts {
		key := g.key(p)
		s, ok := g.slot[key]
		if !ok {
			s = int32(len(counts))
			g.slot[key] = s
			counts = append(counts, 0)
		}
		slots[i] = s
		counts[s]++
	}
	g.off = make([]int32, len(counts)+1)
	for s, c := range counts {
		g.off[s+1] = g.off[s] + c
	}
	g.idx = make([]int32, len(pts))
	cur := counts[:0] // reuse as cursors; counts is dead after the prefix sum
	cur = append(cur, g.off[:len(counts)]...)
	for i := range pts {
		s := slots[i]
		g.idx[cur[s]] = int32(i)
		cur[s]++
	}
	return g
}

// cellPoints returns the indices bucketed in the cell with the given key,
// ascending, or nil for an empty cell.
func (g *Grid) cellPoints(key int) []int32 {
	s, ok := g.slot[key]
	if !ok {
		return nil
	}
	return g.idx[g.off[s]:g.off[s+1]]
}

// Len returns the number of indexed points.
func (g *Grid) Len() int { return len(g.pts) }

// Point returns the i-th indexed point.
func (g *Grid) Point(i int) Point { return g.pts[i] }

// cellIndex maps a coordinate to its cell index along one axis, clamping
// the float before the int conversion: a query point arbitrarily far from
// the indexed bounds (or a NaN coordinate) must not trip Go's
// implementation-defined out-of-range float-to-int conversion. Clamped
// indices lie outside [0, cols) x [0, rows), so queries treat them like
// any other out-of-grid cell.
func cellIndex(v, min, cell float64) int {
	f := math.Floor((v - min) / cell)
	switch {
	case f > maxGridCells:
		return maxGridCells
	case f < -maxGridCells:
		return -maxGridCells
	case math.IsNaN(f):
		return -1
	}
	return int(f)
}

// key computes the bucket key of p's cell. With cols*rows bounded by
// maxGridCells and the per-axis indices clamped, cy*cols+cx stays far
// inside the int range.
func (g *Grid) key(p Point) int {
	cx := cellIndex(p.X, g.minX, g.cell)
	cy := cellIndex(p.Y, g.minY, g.cell)
	return cy*g.cols + cx
}

// Neighbors returns the indices of all indexed points within radius r of q,
// including any indexed point coincident with q. The result order is
// unspecified. The caller may pass a reusable buffer via dst to avoid
// allocation; pass nil otherwise.
func (g *Grid) Neighbors(q Point, r float64, dst []int) []int {
	dst = dst[:0]
	if r < 0 || len(g.pts) == 0 {
		return dst
	}
	r2 := r * r
	// The scan window [c-span, c+span] is computed in float space and
	// clamped to the grid per axis, so a huge radius/cell ratio or a query
	// point far outside the indexed bounds can neither overflow the index
	// arithmetic nor widen the loop beyond the grid itself.
	span := math.Ceil(r/g.cell) + 1
	cx := cellIndex(q.X, g.minX, g.cell)
	cy := cellIndex(q.Y, g.minY, g.cell)
	y0, y1 := cellScanRange(cy, span, g.rows)
	x0, x1 := cellScanRange(cx, span, g.cols)
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			for _, idx := range g.cellPoints(y*g.cols + x) {
				if DistSq(q, g.pts[idx]) <= r2 {
					dst = append(dst, int(idx))
				}
			}
		}
	}
	return dst
}

// cellScanRange clamps the inclusive cell window [c-span, c+span] to
// [0, n), returning an empty range (1, 0) when they do not intersect.
// span is kept in float space until after clamping so extreme values
// never reach an int conversion.
func cellScanRange(c int, span float64, n int) (int, int) {
	lo, hi := float64(c)-span, float64(c)+span
	if hi < 0 || lo > float64(n-1) || math.IsNaN(span) {
		return 1, 0
	}
	if lo < 0 {
		lo = 0
	}
	if hi > float64(n-1) {
		hi = float64(n - 1)
	}
	return int(lo), int(hi)
}

// PairRadius returns a query radius (and cell size) at which Neighbors
// finds every pair of points within distance d of each other, whether the
// pair is judged by Dist(p, q) <= d or by both points lying within d/2 of
// a common point under Within. A caller can then use the grid purely as a
// prefilter and let its own predicate decide, which reproduces an
// all-pairs scan exactly. d is inflated by a relative 1e-9, far above the
// rounding either judgement can incur; floored at 1e-150, so the squared
// radius Neighbors compares against stays a normal float even for d = 0;
// and capped at MaxFloat64, because an infinite radius on an infinite cell
// scans no cells at all.
func PairRadius(d float64) float64 {
	return math.Min(math.Max(d*(1+1e-9), 1e-150), math.MaxFloat64)
}

// CellFor returns a grid cell size (and starting query radius) at which n
// points spread over b sit a small constant number to a cell: twice the
// larger of the area spacing sqrt(width*height/n) and the line spacing
// max(width, height)/n. The line term keeps cells in proportion for
// collinear and near-collinear sets, whose area is zero or a rounding
// error: sized by area alone their cells shrink towards nothing, and a
// ring search between neighbors crosses millions of empty cells. It
// returns 1 when the extent is zero (coincident points) or not a number.
func CellFor(b Rect, n int) float64 {
	w, h := b.Width(), b.Height()
	c := 2 * math.Max(math.Sqrt(w*h/float64(n)), math.Max(w, h)/float64(n))
	if !(c > 0) {
		return 1
	}
	return c
}

// NeighborsOf returns the indices of all indexed points within radius r of
// the i-th indexed point, excluding i itself.
func (g *Grid) NeighborsOf(i int, r float64, dst []int) []int {
	dst = g.Neighbors(g.pts[i], r, dst)
	for j, idx := range dst {
		if idx == i {
			dst[j] = dst[len(dst)-1]
			dst = dst[:len(dst)-1]
			break
		}
	}
	return dst
}

// Nearest returns the index of the indexed point closest to q and its
// distance. It returns (-1, +Inf) when the grid is empty. Ties are broken
// by the lowest index.
func (g *Grid) Nearest(q Point) (int, float64) {
	return g.NearestWhere(q, math.Inf(1), nil)
}

// NearestWhere returns the index of the indexed point closest to q among
// those with accept(i) true (a nil accept admits every point) and at
// distance at most maxDist (inclusive), together with its distance. It
// returns (-1, +Inf) when no indexed point qualifies. Ties are broken by
// the lowest index.
//
// maxDist is also a search bound: the ring expansion stops as soon as the
// remaining rings provably lie beyond min(maxDist, best-so-far), so a
// caller that already holds a candidate (e.g. a component's best outgoing
// edge in a Boruvka phase) pays only for the rings that could beat it.
func (g *Grid) NearestWhere(q Point, maxDist float64, accept func(i int) bool) (int, float64) {
	best, bestD2 := -1, math.Inf(1)
	if len(g.pts) == 0 || math.IsNaN(maxDist) || maxDist < 0 {
		return best, bestD2
	}
	maxD2 := maxDist * maxDist
	// Expand ring by ring around q's cell until a hit is found, then one
	// extra ring to guarantee correctness (a closer point can live in the
	// next ring out). The start cell is clamped into the grid: for a query
	// point outside the indexed bounds the rings then grow from the
	// nearest grid cell, which keeps the ring count bounded by the grid
	// size however far away q is, and the (span-1)*cell distance bound
	// below stays valid because q is at least as far from every ring cell
	// as the clamped cell's boundary is.
	cx := clampInt(cellIndex(q.X, g.minX, g.cell), 0, g.cols-1)
	cy := clampInt(cellIndex(q.Y, g.minY, g.cell), 0, g.rows-1)
	maxSpan := g.cols
	if g.rows > maxSpan {
		maxSpan = g.rows
	}
	scan := func(x, y int) {
		for _, idx := range g.cellPoints(y*g.cols + x) {
			if accept != nil && !accept(int(idx)) {
				continue
			}
			d2 := DistSq(q, g.pts[idx])
			if d2 > maxD2 {
				continue
			}
			if d2 < bestD2 || (d2 == bestD2 && int(idx) < best) {
				best, bestD2 = int(idx), d2
			}
		}
	}
	for span := 0; span <= maxSpan; span++ {
		// A point in a ring at cell-distance span is at least
		// (span-1)*cell away from q, so once that lower bound exceeds
		// the current best (or the caller's cap) the search is complete.
		bound := maxDist
		if best >= 0 {
			if d := math.Sqrt(bestD2); d < bound {
				bound = d
			}
		}
		if float64(span-1)*g.cell > bound {
			break
		}
		// Visit only the ring's cells that lie inside the grid: its top
		// and bottom rows, clamped to the columns, then its left and
		// right columns between them, clamped to the rows. A ring then
		// costs its in-grid perimeter, never its area or its full
		// height, so a far query on a one-row (or one-column) grid pays
		// O(1) per ring rather than O(span).
		x0, x1 := max(cx-span, 0), min(cx+span, g.cols-1)
		if y := cy - span; y >= 0 {
			for x := x0; x <= x1; x++ {
				scan(x, y)
			}
		}
		if y := cy + span; span > 0 && y < g.rows {
			for x := x0; x <= x1; x++ {
				scan(x, y)
			}
		}
		y0, y1 := max(cy-span+1, 0), min(cy+span-1, g.rows-1)
		if x := cx - span; span > 0 && x >= 0 {
			for y := y0; y <= y1; y++ {
				scan(x, y)
			}
		}
		if x := cx + span; span > 0 && x < g.cols {
			for y := y0; y <= y1; y++ {
				scan(x, y)
			}
		}
	}
	return best, math.Sqrt(bestD2)
}

// clampInt clamps v into [lo, hi].
func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
