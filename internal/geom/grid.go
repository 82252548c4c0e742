package geom

import (
	"math"
	"math/bits"
	"slices"
)

// Grid is a spatial index over a fixed point set that answers fixed-radius
// neighbor queries in expected O(1 + k) time, where k is the number of
// results. It is the workhorse behind unit-disk graph construction: building
// the charging graph G_c over n sensors costs O(n + m) instead of O(n^2).
//
// The points live in one bucket table of O(n) entries, counting-sorted in
// ascending point order. When the grid has at most 2n cells, each cell is
// its own bucket, so a row of cells is one run of the table. That serves
// the grids CellFor sizes and gamma-grids over large request sets at the
// paper's density. Otherwise a multiplicative hash sends each cell key
// into a power-of-two table of at least 2n buckets (spatial hashing,
// Teschner et al., VMV 2003), and the points inside a bucket are grouped
// by cell. That serves gamma-grids over a few hundred requests spread
// across a field, such as one simulation round's, and far-apart clusters.
// The dense table is used only where it is no larger than the hashed one
// would be. Either way a cell's points are one ascending run, and memory
// stays O(n) whatever the extent of the points.
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
	// Bucket b holds the point indices idx[off[b]:off[b+1]]. A dense
	// table (ckey == nil) has one bucket per cell, keyed cy*cols+cx. A
	// hashed table sends key k to bucket (k*hashMul)>>shift, and ckey[j]
	// is the cell key of idx[j]; each bucket is sorted by (key, index).
	off   []int32
	idx   []int32
	ckey  []int32
	shift uint
}

// hashMul is 2^64 divided by the golden ratio (Fibonacci hashing), which
// spreads the arithmetic progressions of a grid row's keys evenly over
// the table.
const hashMul = 0x9E3779B97F4A7C15

// maxGridCells bounds cols*rows. It guards the cell-key arithmetic: with
// extreme coordinate extents and a tiny cell size, cols and rows could
// each be ~1e15, whose product wraps int64 and lands distinct cells on one
// key. Cell keys are stored as int32, which the bound also keeps them
// inside. Memory does not depend on it: the bucket table has O(n) entries
// at any cell count. NewGrid coarsens the cell size until the grid fits;
// queries stay correct — cells just hold more candidates.
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
	g := &Grid{cell: cell, pts: pts, cols: 1, rows: 1}
	n := len(pts)
	if n == 0 {
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
	nb := g.cols * g.rows
	if nb > 2*n {
		lg := bits.Len(uint(2*n - 1))
		nb = 1 << lg
		g.shift = uint(64 - lg)
		g.ckey = make([]int32, n)
	}
	// Counting sort by bucket: count, prefix-sum, then fill in ascending
	// point order with off[b] as bucket b's cursor, which leaves off[b]
	// at bucket b's end; one shift turns the ends back into starts.
	key := make([]int32, n)
	g.off = make([]int32, nb+1)
	for i, p := range pts {
		key[i] = int32(g.key(p))
		g.off[g.bucket(int(key[i]))+1]++
	}
	for b := range nb {
		g.off[b+1] += g.off[b]
	}
	g.idx = make([]int32, n)
	for i, k := range key {
		b := g.bucket(int(k))
		g.idx[g.off[b]] = int32(i)
		g.off[b]++
	}
	copy(g.off[1:], g.off[:nb])
	g.off[0] = 0
	if g.ckey != nil {
		g.groupBuckets(key)
	}
	return g
}

// groupBuckets fills ckey and sorts every bucket that holds more than one
// cell by (cell key, point index), so each cell's points form one
// ascending run. A bucket with a single cell is already in that order.
func (g *Grid) groupBuckets(key []int32) {
	var run []uint64
	for b := range len(g.off) - 1 {
		lo, hi := g.off[b], g.off[b+1]
		mixed := false
		for j := lo; j < hi; j++ {
			g.ckey[j] = key[g.idx[j]]
			mixed = mixed || g.ckey[j] != g.ckey[lo]
		}
		if !mixed {
			continue
		}
		run = run[:0]
		for j := lo; j < hi; j++ {
			run = append(run, uint64(g.ckey[j])<<32|uint64(g.idx[j]))
		}
		slices.Sort(run)
		for j, e := range run {
			g.ckey[lo+int32(j)] = int32(e >> 32)
			g.idx[lo+int32(j)] = int32(uint32(e))
		}
	}
}

// bucket returns the bucket that holds the cell with key k.
func (g *Grid) bucket(k int) int {
	if g.ckey == nil {
		return k
	}
	return int((uint64(k) * hashMul) >> g.shift)
}

// cells returns the points of the cells keyed k through end, which lie in
// one grid row, as one run in ascending cell then ascending index order,
// and the first key it did not cover. A dense table keeps a row's cells
// side by side, so one call covers the whole range; a hashed table
// returns one cell per call.
func (g *Grid) cells(k, end int) ([]int32, int) {
	if g.ckey == nil {
		return g.idx[g.off[k]:g.off[end+1]], end + 1
	}
	b := g.bucket(k)
	lo, hi := g.off[b], g.off[b+1]
	for lo < hi && g.ckey[lo] < int32(k) {
		lo++
	}
	e := lo
	for e < hi && g.ckey[e] == int32(k) {
		e++
	}
	return g.idx[lo:e], k + 1
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

// key computes the cell key cy*cols+cx of an indexed point. Finite
// coordinates always fall inside the grid; the clamp gives a point with a
// NaN coordinate (or one past an overflowing extent) a valid cell too.
func (g *Grid) key(p Point) int {
	cx := clampInt(cellIndex(p.X, g.minX, g.cell), 0, g.cols-1)
	cy := clampInt(cellIndex(p.Y, g.minY, g.cell), 0, g.rows-1)
	return cy*g.cols + cx
}

// Neighbors returns the indices of all indexed points within radius r of q,
// including any indexed point coincident with q, in a fixed order: the
// cells in row-major order, then ascending index within a cell. The caller
// may pass a reusable buffer via dst to avoid allocation; pass nil
// otherwise.
func (g *Grid) Neighbors(q Point, r float64, dst []int) []int {
	dst = dst[:0]
	if r < 0 || len(g.pts) == 0 {
		return dst
	}
	r2 := r * r
	// Scan the cells of q ± w. The relative 1e-9 covers DistSq's rounding.
	// The 1e-150 floor covers its underflow: a subnormal or zero r*r
	// admits points up to ~1.5e-154 apart. An overflowing r*r admits
	// every point, so the window is the whole grid. So is an infinite
	// cell, NewGrid's one cell for extents that overflow: there q's
	// offset from the grid's corner can overflow too, and divided by
	// the cell it is NaN, which scanRange reads as a miss.
	x0, x1, y0, y1 := 0, g.cols-1, 0, g.rows-1
	if !math.IsInf(r2, 1) && !math.IsInf(g.cell, 1) {
		w := math.Max(r, 1e-150) * (1 + 1e-9)
		x0, x1 = scanRange(q.X, w, g.minX, g.cell, g.cols)
		y0, y1 = scanRange(q.Y, w, g.minY, g.cell, g.rows)
	}
	for y := y0; y <= y1; y++ {
		for k, end := y*g.cols+x0, y*g.cols+x1; k <= end; {
			var run []int32
			run, k = g.cells(k, end)
			for _, i := range run {
				if DistSq(q, g.pts[i]) <= r2 {
					dst = append(dst, int(i))
				}
			}
		}
	}
	return dst
}

// scanRange returns the inclusive range of cells along one axis that
// covers [v-w, v+w], clamped to [0, n), or an empty range (1, 0) when it
// misses the grid. Both ends are floored in float space and clamped before
// the int conversion, so neither a huge w nor a far or NaN v can overflow
// the index arithmetic.
func scanRange(v, w, min, cell float64, n int) (int, int) {
	lo := math.Floor((v - w - min) / cell)
	hi := math.Floor((v + w - min) / cell)
	if !(hi >= 0 && lo <= float64(n-1)) { // also catches NaN
		return 1, 0
	}
	return int(math.Max(lo, 0)), int(math.Min(hi, float64(n-1)))
}

// PairRadius returns a query radius (and cell size) at which Neighbors
// finds every pair of points within distance d of each other, whether the
// pair is judged by Dist(p, q) <= d or by both points lying within d/2 of
// a common point under Within. A caller can then use the grid purely as a
// prefilter and let its own predicate decide, which reproduces an
// all-pairs scan exactly. d is inflated by a relative 1e-9, far above the
// rounding either judgement can incur, and floored at 1e-150, so the
// squared radius Neighbors compares against stays a normal float even for
// d = 0. An infinite d needs no cap: its square overflows, and Neighbors
// then scans the whole grid.
func PairRadius(d float64) float64 {
	return math.Max(d*(1+1e-9), 1e-150)
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
// the i-th indexed point, excluding i itself. The order is Neighbors'
// order, except that the last result moves into i's place.
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
		run, _ := g.cells(y*g.cols+x, y*g.cols+x)
		for _, idx := range run {
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
