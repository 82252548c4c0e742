package graph

import (
	"time"

	"repro/internal/obs"
)

// degreeBucketQueue indexes the alive vertices of a shrinking graph by
// residual degree, supporting the exact selection rule of the degree-ordered
// MIS strategies: "the alive vertex of minimum (or maximum) residual degree,
// lowest vertex index among ties". It replaces the per-selection
// argmin/argmax sweep over all n vertices of the quadratic reference
// (misByDegreeRescan, kept in the oracle tests) with incremental
// bookkeeping:
//
//   - buckets[d] holds candidate entries for residual degree d, kept as a
//     binary min-heap ON VERTEX INDEX, so the bucket's top is always its
//     lowest-index member — exactly the rescan's tie-break.
//   - Entries are filed lazily: when a vertex's residual degree drops from
//     d to d-1 it is pushed onto buckets[d-1] and its old entries are left
//     behind as stale. An entry (v, d) is live iff alive[v] && deg[v] == d;
//     stale entries are discarded the first time they surface at a top.
//     Residual degrees only ever decrease, so a vertex enters each bucket
//     at most once and the total entry count is bounded by n + #decrements
//     <= n + 2m.
//   - cursor tracks the extreme nonempty bucket. For max-degree orders it
//     is monotone: while the cursor sits at d no alive vertex can reach
//     degree > d (degrees never grow), and decrements file entries strictly
//     below their old degree, so the cursor only walks down — O(maxDeg)
//     cursor movement total. For min-degree orders a decrement can create
//     a new minimum below the cursor; decrement pulls the cursor back down,
//     and the total up-walk is bounded by maxDeg plus the number of
//     pull-downs, i.e. O(maxDeg + m).
//
// Each of the O(n + m) entries is pushed and popped at most once, at
// O(log bucketSize) per heap operation — near-linear overall, versus the
// rescan's Θ(n · selections). The selection sequence is byte-identical to
// the rescan's by construction (see DESIGN.md §16 for the full invariant
// argument and TestMISDegreeOrderOracle / FuzzMISDegreeOrder for the
// machine-checked version).
type degreeBucketQueue struct {
	deg     []int32   // residual degree = #alive neighbors, for alive vertices
	alive   []bool    // false once removed from the graph
	buckets [][]int32 // buckets[d]: min-heap on vertex index, may hold stale entries
	cursor  int       // the extreme candidate bucket (min or max end)
	wantMin bool
}

// newDegreeBucketQueue builds the queue over g's full vertex set. Initial
// buckets are filled in ascending vertex order; an ascending slice is
// already a valid min-heap, so construction is O(n).
func newDegreeBucketQueue(g *Undirected, wantMin bool) *degreeBucketQueue {
	n := g.Len()
	q := &degreeBucketQueue{
		deg:     make([]int32, n),
		alive:   make([]bool, n),
		wantMin: wantMin,
	}
	maxDeg := 0
	for v := 0; v < n; v++ {
		d := g.Degree(v)
		q.deg[v] = int32(d)
		q.alive[v] = true
		if d > maxDeg {
			maxDeg = d
		}
	}
	counts := make([]int32, maxDeg+1)
	for v := 0; v < n; v++ {
		counts[q.deg[v]]++
	}
	q.buckets = make([][]int32, maxDeg+1)
	for d := range q.buckets {
		q.buckets[d] = make([]int32, 0, counts[d])
	}
	for v := 0; v < n; v++ {
		q.buckets[q.deg[v]] = append(q.buckets[q.deg[v]], int32(v))
	}
	if !wantMin {
		q.cursor = maxDeg
	}
	return q
}

// pop returns the alive vertex with extreme residual degree (lowest index
// among ties) and removes its live bucket entry, or false when no alive
// vertex remains. Stale entries surfacing at bucket tops are discarded on
// the way.
func (q *degreeBucketQueue) pop() (int, bool) {
	for q.cursor >= 0 && q.cursor < len(q.buckets) {
		b := q.buckets[q.cursor]
		for len(b) > 0 {
			v := b[0]
			b = heapPopMin(b)
			if q.alive[v] && q.deg[v] == int32(q.cursor) {
				q.buckets[q.cursor] = b
				return int(v), true
			}
		}
		q.buckets[q.cursor] = b
		if q.wantMin {
			q.cursor++
		} else {
			q.cursor--
		}
	}
	return -1, false
}

// kill marks v dead. Its remaining bucket entries go stale and are skipped
// lazily.
func (q *degreeBucketQueue) kill(v int32) { q.alive[v] = false }

// decrement lowers alive w's residual degree by one and files it under the
// new bucket. The old entry goes stale. For min orders the new degree may
// undercut the cursor; pull it back so the next pop starts low enough.
func (q *degreeBucketQueue) decrement(w int32) {
	d := q.deg[w] - 1
	q.deg[w] = d
	q.buckets[d] = heapPushMin(q.buckets[d], w)
	if q.wantMin && int(d) < q.cursor {
		q.cursor = int(d)
	}
}

// misByDegreeBucket runs the degree-ordered greedy MIS selection on the
// bucket queue and returns the vertices in selection order (not sorted).
// When tr is non-nil the loop's two phases are accumulated into the nested
// mis/select and mis/update spans.
func misByDegreeBucket(g *Undirected, wantMin bool, tr *obs.Tracer) []int {
	n := g.Len()
	q := newDegreeBucketQueue(g, wantMin)
	remaining := n
	var out []int
	remove := make([]int32, 0, 16) // scratch, reused across selections
	var selectD, updateD time.Duration
	for remaining > 0 {
		var t0 time.Time
		if tr != nil {
			t0 = time.Now()
		}
		best, ok := q.pop()
		if tr != nil {
			t1 := time.Now()
			selectD += t1.Sub(t0)
			t0 = t1
		}
		if !ok {
			break // unreachable: every alive vertex keeps a live entry
		}
		out = append(out, best)
		// Remove best and its alive neighbors, then fix the residual
		// degrees of the survivors' neighborhoods — the same two-phase
		// batch as the rescan reference, so deg always counts alive
		// neighbors only.
		remove = append(remove[:0], int32(best))
		for _, w := range g.Neighbors(best) {
			if q.alive[w] {
				remove = append(remove, w)
			}
		}
		for _, v := range remove {
			q.kill(v)
			remaining--
		}
		for _, v := range remove {
			for _, w := range g.Neighbors(int(v)) {
				if q.alive[w] {
					q.decrement(w)
				}
			}
		}
		if tr != nil {
			updateD += time.Since(t0)
		}
	}
	if tr != nil {
		tr.Observe(obs.StageMISSelect, selectD)
		tr.Observe(obs.StageMISUpdate, updateD)
	}
	return out
}

// heapPushMin pushes v onto the min-heap h and returns the grown heap.
func heapPushMin(h []int32, v int32) []int32 {
	h = append(h, v)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	return h
}

// heapPopMin removes the top of the min-heap h and returns the shrunk heap.
func heapPopMin(h []int32) []int32 {
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l := 2*i + 1
		if l >= len(h) {
			break
		}
		m := l
		if r := l + 1; r < len(h) && h[r] < h[l] {
			m = r
		}
		if h[i] <= h[m] {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	return h
}
