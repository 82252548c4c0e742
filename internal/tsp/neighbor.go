package tsp

import (
	"math"
	"slices"

	"repro/internal/geom"
	"repro/internal/mst"
)

// DefaultNeighborK is the neighbor-list size of the 2-opt descent:
// exchanges are only attempted between a stop and its k nearest (or
// their) neighbors.
const DefaultNeighborK = 10

// TwoOpt improves the tour in place with 2-opt moves until no improving
// move exists or maxRounds sweeps complete (maxRounds <= 0 means no cap),
// and returns the number of improving moves applied. It only attempts
// exchanges whose new edge connects a vertex to one of its
// DefaultNeighborK nearest neighbors (symmetrized: a candidate pair is
// kept if either endpoint ranks the other). Together with don't-look bits
// and first-improvement sweeps this makes a sweep O(n·k) instead of
// O(n^2), at the cost of possibly missing long-range exchanges.
//
// A move is accepted only when it shortens the tour by more than 1e-12
// times the length of the two edges it removes. The four distances of an
// improving move are each at most that sum, so their rounding cannot fake
// an improvement: every accepted move strictly shortens the tour, the
// descent never lengthens it and always terminates, whatever the
// coordinates' magnitude.
//
// The descent is sequential and deterministic: vertices are scanned in
// tour order, candidate neighbors in ascending (distance, index) order,
// and the first improving move is taken. Order[0] is the start vertex
// before and after.
func TwoOpt(t *Tour, pts []geom.Point, maxRounds int) int {
	if len(t.Order) < 4 {
		return 0
	}
	return twoOpt(t, pts, nil, maxRounds)
}

// twoOpt is TwoOpt with its neighbour lists' first ring read from cand,
// the MST's candidate graph over pts, or queried afresh when cand is nil.
func twoOpt(t *Tour, pts []geom.Point, cand *mst.Candidates, maxRounds int) int {
	n := len(t.Order)
	start := t.Order[0]
	off, adj := neighborLists(pts, cand)
	pos := make([]int, len(pts))
	for i, v := range t.Order {
		pos[v] = i
	}
	dontlook := make([]bool, len(pts))
	moves := 0
	for round := 0; maxRounds <= 0 || round < maxRounds; round++ {
		improved := false
		for v := 0; v < n; v++ {
			w := t.Order[v] // scan by tour position for locality; id order within a position is fixed anyway
			if dontlook[w] {
				continue
			}
			if tryNeighborMoves(t, pts, pos, dontlook, off, adj, w) {
				improved = true
				moves++
			} else {
				dontlook[w] = true
			}
		}
		if !improved {
			break
		}
	}
	// A move reverses the shorter cyclic side, which can carry the start
	// vertex anywhere; rotate it back to the front.
	if s := pos[start]; s != 0 {
		slices.Reverse(t.Order[:s])
		slices.Reverse(t.Order[s:])
		slices.Reverse(t.Order)
	}
	return moves
}

// tryNeighborMoves attempts the 2-opt exchanges around vertex a whose new
// edge (a, c) pairs a with a list neighbor c, in both tour orientations
// (successor and predecessor edge of a). Candidates are pruned once
// d(a, c) reaches the removed edge's length — a standard neighbor-list
// bound: any improving move has its shorter new edge discovered from one
// of its four endpoints, all of which are scanned. It applies the first
// move that passes TwoOpt's relative acceptance test, clears the
// don't-look bits of the four endpoints, and reports whether a move was
// applied.
func tryNeighborMoves(t *Tour, pts []geom.Point, pos []int, dontlook []bool, off, adj []int32, a int) bool {
	n := len(t.Order)
	i := pos[a]
	b := t.Order[(i+1)%n]   // successor edge (a, b)
	p := t.Order[(i-1+n)%n] // predecessor edge (p, a)
	dab := geom.Dist(pts[a], pts[b])
	dpa := geom.Dist(pts[p], pts[a])
	for _, cv := range adj[off[a]:off[a+1]] {
		c := int(cv)
		dac := geom.Dist(pts[a], pts[c])
		if dac >= dab && dac >= dpa {
			break // rows are distance-sorted: no later candidate can improve
		}
		j := pos[c]
		// Orientation 1: remove (a, b) and (c, d), add (a, c) and (b, d).
		if dac < dab && c != b {
			d := t.Order[(j+1)%n]
			if d != a {
				dcd := geom.Dist(pts[c], pts[d])
				if dac+geom.Dist(pts[b], pts[d])-dab-dcd < -1e-12*(dab+dcd) {
					apply2opt(t, pos, i, j)
					dontlook[a], dontlook[b], dontlook[c], dontlook[d] = false, false, false, false
					return true
				}
			}
		}
		// Orientation 2: remove (p, a) and (e, c), add (p, e) and (a, c).
		if dac < dpa && c != p {
			e := t.Order[(j-1+n)%n]
			if e != a {
				dec := geom.Dist(pts[e], pts[c])
				if dac+geom.Dist(pts[p], pts[e])-dpa-dec < -1e-12*(dpa+dec) {
					apply2opt(t, pos, (j-1+n)%n, (i-1+n)%n)
					dontlook[a], dontlook[p], dontlook[c], dontlook[e] = false, false, false, false
					return true
				}
			}
		}
	}
	return false
}

// apply2opt removes the tour edges leaving positions i and j — the edges
// (Order[i], Order[i+1]) and (Order[j], Order[j+1]) — and reconnects by
// reversing the cyclic segment between them, keeping pos in sync. The
// shorter of the two complementary segments is reversed (both yield the
// same undirected tour), so a move costs O(min(|segment|, n-|segment|)).
func apply2opt(t *Tour, pos []int, i, j int) {
	n := len(t.Order)
	inner := (j - i + n) % n // length of segment Order[i+1..j]
	if inner == 0 || inner == n {
		return
	}
	if inner <= n-inner {
		reverseCyclic(t.Order, pos, (i+1)%n, inner)
	} else {
		reverseCyclic(t.Order, pos, (j+1)%n, n-inner)
	}
}

// reverseCyclic reverses the cyclic segment of count elements starting at
// index from, updating pos.
func reverseCyclic(order []int, pos []int, from, count int) {
	n := len(order)
	i, j := from, (from+count-1)%n
	for s := 0; s < count/2; s++ {
		order[i], order[j] = order[j], order[i]
		pos[order[i]] = i
		pos[order[j]] = j
		i++
		if i == n {
			i = 0
		}
		j--
		if j < 0 {
			j = n - 1
		}
	}
}

// neighborLists builds the symmetrized k-nearest-neighbor candidate CSR
// over pts, k = DefaultNeighborK: row v holds the union of v's k nearest
// and every vertex that ranks v among its own k nearest, sorted by
// (squared distance from v, index). Each vertex's k nearest are found by
// grid ring expansion into a fixed k-slot list kept in (d², index) order
// by insertion, so no candidate set is sorted. The first ring is the
// query at radius geom.CellFor on a grid of that cell size. When cand,
// the MST's candidate graph over pts, is given, its grid and rows are
// exactly that grid and those queries, so the first ring is read from
// it; otherwise the grid is built here. Row v starts as v's own list; a
// vertex u that lists v joins it, by insertion on the same key, only
// where v does not list u already. Construction is O(n·k²) at bounded
// density.
//
// "Does u list v" is answered in O(1) when u's list is full. A ring stops
// growing once it holds k vertices, and every vertex outside it is
// farther than all inside, so a full list holds exactly the k least
// (d², index) keys from u, and v is on it iff its key from u is at most
// the k-th. Both keys are computed from u's side (and geom.DistSq is
// symmetric bit for bit anyway). A list that is not full holds every
// other vertex (n <= k), or comes from non-finite coordinates, where the
// ring stops early; those are searched.
func neighborLists(pts []geom.Point, cand *mst.Candidates) ([]int32, []int32) {
	const k = DefaultNeighborK
	n := len(pts)
	b := geom.Bounds(pts)
	maxR := math.Hypot(b.Width(), b.Height())
	var grid *geom.Grid
	var r float64
	if cand != nil {
		grid, r = cand.Grid(), cand.Radius()
	} else {
		r = geom.CellFor(b, n)
		grid = geom.NewGrid(pts, r)
	}
	// near[v*k : v*k+cnt[v]] is v's list of nearest, ascending by (d²,
	// index); kth[v] is the d² of its k-th entry when the list is full.
	near := make([]int32, n*k)
	cnt := make([]int32, n)
	kth := make([]float64, n)
	finite := true
	var d2 [k]float64
	var buf []int
	for u := range n {
		finite = finite && pts[u].Finite()
		radius := r
		if cand != nil {
			buf = buf[:0]
			for _, v := range cand.Row(u) {
				buf = append(buf, int(v))
			}
		} else {
			buf = grid.NeighborsOf(u, radius, buf)
		}
		// A NaN or infinite coordinate makes maxR or the radius
		// non-finite, where radius <= maxR fails; the search then stops.
		for len(buf) < k && radius <= maxR && geom.Finite(radius) && geom.Finite(maxR) {
			radius *= 2
			buf = grid.NeighborsOf(u, radius, buf)
		}
		row := near[u*k : u*k+k]
		m := 0
		for _, vi := range buf {
			v, dv := int32(vi), geom.DistSq(pts[u], pts[vi])
			if m == k && !keyLess(dv, v, d2[k-1], row[k-1]) {
				continue
			}
			j := min(m, k-1)
			m = min(m+1, k)
			for ; j > 0 && keyLess(dv, v, d2[j-1], row[j-1]); j-- {
				d2[j], row[j] = d2[j-1], row[j-1]
			}
			d2[j], row[j] = dv, v
		}
		cnt[u], kth[u] = int32(m), d2[k-1]
	}
	list := func(v int) []int32 { return near[v*k : v*k+int(cnt[v])] }
	// lists reports whether u lists v, where d = DistSq(pts[u], pts[v]).
	lists := func(u int, v int32, d float64) bool {
		if finite && cnt[u] == k {
			return !keyLess(kth[u], near[u*k+k-1], d, v)
		}
		return slices.Contains(list(u), v)
	}

	// Row u holds u's own list plus one reverse entry for each v that
	// lists u while u does not list v.
	off := make([]int32, n+1)
	for v := range n {
		off[v+1] += cnt[v]
		for _, u := range list(v) {
			if !lists(int(u), int32(v), geom.DistSq(pts[u], pts[v])) {
				off[u+1]++
			}
		}
	}
	for v := range n {
		off[v+1] += off[v]
	}
	adj := make([]int32, off[n])
	end := make([]int32, n)
	for v := range n {
		end[v] = off[v] + int32(copy(adj[off[v]:], list(v)))
	}
	// Reverse entries join their rows by insertion on (d², index). They
	// arrive in ascending v, and usually sort after the row's own list.
	for v := range n {
		for _, u := range list(v) {
			pu := pts[u]
			dv := geom.DistSq(pu, pts[v])
			if lists(int(u), int32(v), dv) {
				continue
			}
			j := end[u]
			for ; j > off[u] && keyLess(dv, int32(v), geom.DistSq(pu, pts[adj[j-1]]), adj[j-1]); j-- {
				adj[j] = adj[j-1]
			}
			adj[j] = int32(v)
			end[u]++
		}
	}
	return off, adj
}

// keyLess orders neighbor candidates by (squared distance, index).
func keyLess(da float64, a int32, db float64, b int32) bool {
	return da < db || (da == db && a < b)
}
