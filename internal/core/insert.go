package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/geom"
)

// This file implements the step-6 insertion phase of Algorithm Appro
// (appro.go) with sub-quadratic data structures. The engine produces
// schedules byte-identical to the straightforward implementation — rescan
// every pending candidate, splice a slice, recompute the whole tour — by
// three observations:
//
//  1. f_N(u), the latest finish time among u's placed H-neighbors, never
//     decreases: finishes only grow (inserting a stop shifts downstream
//     arrivals later, never earlier) and the placed set only grows. A
//     min-heap over (f_N(u), u) with lazy re-keying therefore pops the
//     exact argmin the reference scan finds: stored keys are lower bounds,
//     so a popped entry whose recomputed key is unchanged is the true
//     lexicographic minimum. The reference breaks f_N ties by first
//     position in the pending list, which is ascending si order — the
//     heap's secondary key.
//
//  2. Tours are stored as chunks of consecutive stops with a lazy "clean
//     frontier": chunks left of the frontier hold arrival times bit-equal
//     to what a full depot-onward recomputation would produce. The
//     reference recomputation satisfies now == Arrive[i]+Duration[i] after
//     every stop, so a chunk can be recomputed exactly from its
//     predecessor's last (arrive + duration) — the same two floats added
//     in the same order. An insert invalidates only the suffix of one
//     tour (frontier moves back to the insertion chunk) instead of paying
//     an O(L) full-tour walk per insert.
//
//     Each stop also keeps its incoming travel leg, the in.Travel float
//     from its predecessor (or the depot) that the walk adds before its
//     arrival, so recomputing a chunk adds stored floats. A leg depends
//     only on the stop and its predecessor, so an insert computes two:
//     the new stop's, and its successor's, which is the next chunk's
//     first stop when the insert lands at the end of a chunk. A split
//     moves legs with their stops and computes none.
//
//  3. Cover sets live in one flat arena ([]int32 + offsets), and the
//     inVH/stopPos maps of the reference become flat slices indexed by si
//     position, eliminating per-candidate allocations and map traffic.
//
// The equivalence is enforced by TestInsertionMatchesReference, which runs
// the retired reference implementation side by side with this engine.

const (
	chunkMax   = 128 // chunk size that triggers a split
	chunkSplit = 64  // size of the left half after a split
)

// wchunk is one block of consecutive stops of a working tour. Parallel
// arrays rather than a []Stop keep the hot arrival recomputation loop on
// contiguous float64s, and covers live in the engine's arena.
type wchunk struct {
	t      *wtour
	cidx   int // index of this chunk within t.chunks
	node   []int32
	hidx   []int32 // si index of each stop (dense inverse of node)
	dur    []float64
	arr    []float64
	leg    []float64 // travel time from the previous stop (or the depot)
	covOff []int32
	covLen []int32
}

// wtour is the working representation of one charger tour: a sequence of
// non-empty chunks plus the clean frontier. chunks[:clean] hold arrival
// times bit-identical to a full recomputeTourTimes walk.
type wtour struct {
	chunks []*wchunk
	clean  int
	n      int // total stops
}

// ensureClean advances the frontier until chunks[:ci+1] are exact.
func (t *wtour) ensureClean(ci int) {
	for t.clean <= ci {
		c := t.chunks[t.clean]
		now := 0.0
		if t.clean > 0 {
			p := t.chunks[t.clean-1]
			last := len(p.node) - 1
			// The reference walk leaves now == arrive+duration after each
			// stop, so this is the exact entry state of chunk t.clean.
			now = p.arr[last] + p.dur[last]
		}
		for i, leg := range c.leg {
			now += leg
			c.arr[i] = now
			now += c.dur[i]
		}
		t.clean++
	}
}

// delay returns the tour's closed-tour delay, exactly as recomputeTourTimes
// would set it.
func (t *wtour) delay(in *Instance) float64 {
	if t.n == 0 {
		return 0
	}
	t.ensureClean(len(t.chunks) - 1)
	c := t.chunks[len(t.chunks)-1]
	last := len(c.node) - 1
	return c.arr[last] + c.dur[last] + in.Travel(in.Requests[c.node[last]].Pos, in.Depot)
}

// finEnt is one lazy heap entry: key is a lower bound on f_N(h).
type finEnt struct {
	key float64
	h   int32
}

// insEngine carries the insertion phase's working state over the
// candidates of steps 1-4 (S_I, H, V'_H and the cover arena).
type insEngine struct {
	candidates
	in       *Instance
	covered  []bool
	tours    []*wtour
	posChunk []*wchunk // si index -> chunk holding its stop
	posIdx   []int32   // si index -> position within that chunk
	placed   []bool    // si index -> stop exists for it
	pend     []bool    // si index -> still awaiting processing
	keyed    []bool    // si index -> has entered the heap
	fheap    []finEnt  // min-heap on (f_N, si index)
	stopCov  []int32   // arena of per-stop attributed covers
	remain   int
	minPend  int // monotone cursor for the no-placed-neighbor fallback
}

// newInsEngine seeds the engine with the initial V'_H placement from the
// K-minMax tours, attributing coverage in the same k-then-tour-order walk
// as the reference.
func newInsEngine(in *Instance, c candidates, service []float64, ktTours [][]int) *insEngine {
	si := c.si
	e := &insEngine{
		candidates: c,
		in:         in,
		covered:    make([]bool, len(in.Requests)),
		tours:      make([]*wtour, in.K),
		posChunk:   make([]*wchunk, len(si)),
		posIdx:     make([]int32, len(si)),
		placed:     make([]bool, len(si)),
		pend:       make([]bool, len(si)),
		keyed:      make([]bool, len(si)),
		// Every request is attributed to at most one stop, so the cover
		// arena never outgrows the request count.
		stopCov: make([]int32, 0, len(in.Requests)),
	}
	for k := range e.tours {
		e.tours[k] = &wtour{}
	}
	for k, tour := range ktTours {
		for _, vi := range tour {
			hIdx := e.vh[vi]
			off := int32(len(e.stopCov))
			cnt := int32(0)
			for _, u := range e.cover(hIdx) {
				if !e.covered[u] {
					e.covered[u] = true
					e.stopCov = append(e.stopCov, u)
					cnt++
				}
			}
			e.rawAppend(e.tours[k], int32(si[hIdx]), int32(hIdx), service[vi], off, cnt)
			e.placed[hIdx] = true
		}
	}
	for i := range si {
		if !e.placed[i] {
			e.pend[i] = true
			e.remain++
		}
	}
	// Key every pending candidate that already touches a placed one.
	for i := range si {
		if !e.pend[i] {
			continue
		}
		if fn, _, ok := e.latestNeighborFinish(i); ok {
			e.keyed[i] = true
			e.pushFin(fn, int32(i))
		}
	}
	return e
}

// newChunk allocates a chunk with its seven parallel arrays at full
// capacity up front: a chunk lives at up to chunkMax stops plus the one
// insert that triggers a split, so sizing for that eliminates all append
// regrowth. The arrays are cap-limited windows of two backing arrays, one
// per element type, so an append can never spill into a neighbour.
func newChunk(t *wtour, cidx int) *wchunk {
	const m = chunkMax + 1
	ints := make([]int32, 4*m)
	floats := make([]float64, 3*m)
	return &wchunk{
		t: t, cidx: cidx,
		node:   ints[0:0:m],
		hidx:   ints[m : m : 2*m],
		covOff: ints[2*m : 2*m : 3*m],
		covLen: ints[3*m : 3*m : 4*m],
		dur:    floats[0:0:m],
		arr:    floats[m : m : 2*m],
		leg:    floats[2*m : 2*m : 3*m],
	}
}

// location returns the position of the stop at index i of chunk c.
func (e *insEngine) location(c *wchunk, i int) geom.Point {
	return e.in.Requests[c.node[i]].Pos
}

// predPos returns the position the charger leaves from to reach index i
// of chunk c: the previous stop, the previous chunk's last stop, or the
// depot.
func (e *insEngine) predPos(c *wchunk, i int) geom.Point {
	switch {
	case i > 0:
		return e.location(c, i-1)
	case c.cidx > 0:
		p := c.t.chunks[c.cidx-1]
		return e.location(p, len(p.node)-1)
	}
	return e.in.Depot
}

// rawAppend pushes a stop onto the end of a tour, with its incoming leg,
// without touching arrival state (used for the initial placement, which
// starts fully stale).
func (e *insEngine) rawAppend(t *wtour, node, hid int32, dur float64, covOff, covLen int32) {
	var c *wchunk
	if len(t.chunks) == 0 || len(t.chunks[len(t.chunks)-1].node) >= chunkMax {
		c = newChunk(t, len(t.chunks))
		t.chunks = append(t.chunks, c)
	} else {
		c = t.chunks[len(t.chunks)-1]
	}
	c.leg = append(c.leg, e.in.Travel(e.predPos(c, len(c.node)), e.in.Requests[node].Pos))
	c.node = append(c.node, node)
	c.hidx = append(c.hidx, hid)
	c.dur = append(c.dur, dur)
	c.arr = append(c.arr, 0)
	c.covOff = append(c.covOff, covOff)
	c.covLen = append(c.covLen, covLen)
	e.posChunk[hid] = c
	e.posIdx[hid] = int32(len(c.node) - 1)
	t.n++
}

// finish returns f(v) for a placed candidate, bit-equal to
// Stop.Finish() after a full recompute.
func (e *insEngine) finish(hIdx int) float64 {
	c := e.posChunk[hIdx]
	c.t.ensureClean(c.cidx)
	i := e.posIdx[hIdx]
	return c.arr[i] + c.dur[i]
}

// latestNeighborFinish computes f_N(u) (Eq. (8)) and the placed neighbor
// attaining it; ok is false when u has no placed H-neighbor. Ties keep the
// first neighbor in H adjacency order, like the reference.
func (e *insEngine) latestNeighborFinish(hIdx int) (fn float64, best int, ok bool) {
	fn, best = math.Inf(-1), -1
	for _, w := range e.h.Neighbors(hIdx) {
		if !e.placed[w] {
			continue
		}
		if f := e.finish(int(w)); f > fn {
			fn, best = f, int(w)
		}
	}
	return fn, best, best >= 0
}

// pushFin / popFin: hand-rolled binary min-heap on (key, h) lexicographic.
func (e *insEngine) pushFin(key float64, h int32) {
	e.fheap = append(e.fheap, finEnt{key, h})
	i := len(e.fheap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !finLess(e.fheap[i], e.fheap[p]) {
			break
		}
		e.fheap[i], e.fheap[p] = e.fheap[p], e.fheap[i]
		i = p
	}
}

func finLess(a, b finEnt) bool {
	return a.key < b.key || (a.key == b.key && a.h < b.h)
}

func (e *insEngine) popFin() finEnt {
	top := e.fheap[0]
	last := len(e.fheap) - 1
	e.fheap[0] = e.fheap[last]
	e.fheap = e.fheap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < last && finLess(e.fheap[l], e.fheap[m]) {
			m = l
		}
		if r < last && finLess(e.fheap[r], e.fheap[m]) {
			m = r
		}
		if m == i {
			break
		}
		e.fheap[i], e.fheap[m] = e.fheap[m], e.fheap[i]
		i = m
	}
	return top
}

// pick selects the next candidate and the placed neighbor to insert after
// (-1 for the no-placed-neighbor fallback), reproducing the reference
// scan's choice exactly.
func (e *insEngine) pick() (hIdx, after int) {
	for len(e.fheap) > 0 {
		ent := e.popFin()
		if !e.pend[ent.h] {
			continue
		}
		fn, best, _ := e.latestNeighborFinish(int(ent.h))
		if fn > ent.key {
			// The key was a stale lower bound; re-key and retry. f_N is
			// monotone non-decreasing, so keys never overshoot.
			e.pushFin(fn, ent.h)
			continue
		}
		return int(ent.h), best
	}
	// No pending candidate touches a placed one. This cannot happen when
	// V'_H is maximal, but guard against it like the reference: take the
	// earliest pending candidate and append it to the shortest tour.
	for !e.pend[e.minPend] {
		e.minPend++
	}
	return e.minPend, -1
}

// shortestTour returns the tour with the smallest delay (first wins ties).
func (e *insEngine) shortestTour() *wtour {
	best, bestDelay := 0, e.tours[0].delay(e.in)
	for k := 1; k < len(e.tours); k++ {
		if d := e.tours[k].delay(e.in); d < bestDelay {
			best, bestDelay = k, d
		}
	}
	return e.tours[best]
}

// insertAt splices a stop into chunk c at local index li, computes its
// incoming leg and its successor's, recomputes the chunk's arrivals
// exactly, and marks the tour's suffix stale.
func (e *insEngine) insertAt(t *wtour, c *wchunk, li int, node, hid int32, dur float64, covOff, covLen int32) {
	t.ensureClean(c.cidx)
	pos := e.in.Requests[node].Pos
	c.leg = append(c.leg, 0)
	copy(c.leg[li+1:], c.leg[li:])
	c.leg[li] = e.in.Travel(e.predPos(c, li), pos)
	switch {
	case li+1 < len(c.leg):
		c.leg[li+1] = e.in.Travel(pos, e.location(c, li))
	case c.cidx+1 < len(t.chunks):
		nc := t.chunks[c.cidx+1]
		nc.leg[0] = e.in.Travel(pos, e.location(nc, 0))
	}
	c.node = append(c.node, 0)
	copy(c.node[li+1:], c.node[li:])
	c.node[li] = node
	c.hidx = append(c.hidx, 0)
	copy(c.hidx[li+1:], c.hidx[li:])
	c.hidx[li] = hid
	c.dur = append(c.dur, 0)
	copy(c.dur[li+1:], c.dur[li:])
	c.dur[li] = dur
	c.arr = append(c.arr, 0)
	c.covOff = append(c.covOff, 0)
	copy(c.covOff[li+1:], c.covOff[li:])
	c.covOff[li] = covOff
	c.covLen = append(c.covLen, 0)
	copy(c.covLen[li+1:], c.covLen[li:])
	c.covLen[li] = covLen
	e.posChunk[hid] = c
	for i := li; i < len(c.node); i++ {
		e.posIdx[c.hidx[i]] = int32(i)
	}
	t.n++
	// Only this chunk's arrivals are recomputed now; everything after it
	// shifts and goes stale until someone looks at it.
	t.clean = c.cidx
	t.ensureClean(c.cidx)
	if len(c.node) >= chunkMax {
		e.split(t, c)
	}
}

// split halves an oversized chunk, keeping both halves' arrival state.
func (e *insEngine) split(t *wtour, c *wchunk) {
	nc := newChunk(t, c.cidx+1)
	nc.node = append(nc.node, c.node[chunkSplit:]...)
	nc.hidx = append(nc.hidx, c.hidx[chunkSplit:]...)
	nc.dur = append(nc.dur, c.dur[chunkSplit:]...)
	nc.arr = append(nc.arr, c.arr[chunkSplit:]...)
	nc.leg = append(nc.leg, c.leg[chunkSplit:]...)
	nc.covOff = append(nc.covOff, c.covOff[chunkSplit:]...)
	nc.covLen = append(nc.covLen, c.covLen[chunkSplit:]...)
	c.node = c.node[:chunkSplit]
	c.hidx = c.hidx[:chunkSplit]
	c.dur = c.dur[:chunkSplit]
	c.arr = c.arr[:chunkSplit]
	c.leg = c.leg[:chunkSplit]
	c.covOff = c.covOff[:chunkSplit]
	c.covLen = c.covLen[:chunkSplit]
	t.chunks = append(t.chunks, nil)
	copy(t.chunks[c.cidx+2:], t.chunks[c.cidx+1:])
	t.chunks[c.cidx+1] = nc
	for i := c.cidx + 1; i < len(t.chunks); i++ {
		t.chunks[i].cidx = i
	}
	for i, hid := range nc.hidx {
		e.posChunk[hid] = nc
		e.posIdx[hid] = int32(i)
	}
	if t.clean > c.cidx {
		t.clean++ // both halves stay exact
	}
}

// run executes the insertion loop until no candidate is pending.
func (e *insEngine) run(ctx context.Context) error {
	for iter := 0; e.remain > 0; iter++ {
		// The insertion loop dominates dense instances; poll for
		// cancellation every few iterations so a deadline aborts the
		// plan promptly without a per-iteration atomic load.
		if iter%64 == 0 {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("core: appro: insertion: %w", err)
			}
		}
		hIdx, after := e.pick()
		e.pend[hIdx] = false
		e.remain--

		// Skip if all sensors in N_c+(u) are already attributed
		// (Algorithm 1, line 10); otherwise tau'(u) per Eq. (10) is the
		// longest duration among the newly covered.
		cov := e.cover(hIdx)
		cnt := int32(0)
		dur := 0.0
		for _, u := range cov {
			if !e.covered[u] {
				cnt++
				if d := e.in.Requests[u].Duration; d > dur {
					dur = d
				}
			}
		}
		if cnt == 0 {
			continue
		}
		off := int32(len(e.stopCov))
		for _, u := range cov {
			if !e.covered[u] {
				e.covered[u] = true
				e.stopCov = append(e.stopCov, u)
			}
		}

		var t *wtour
		var c *wchunk
		var li int
		if after >= 0 {
			c = e.posChunk[after]
			t = c.t
			li = int(e.posIdx[after]) + 1
		} else {
			t = e.shortestTour()
			if len(t.chunks) == 0 {
				t.chunks = append(t.chunks, newChunk(t, 0))
			}
			c = t.chunks[len(t.chunks)-1]
			li = len(c.node)
		}
		e.insertAt(t, c, li, int32(e.si[hIdx]), int32(hIdx), dur, off, cnt)
		e.placed[hIdx] = true

		// Newly reachable candidates enter the heap; already-keyed ones
		// are re-keyed lazily on pop.
		for _, w := range e.h.Neighbors(hIdx) {
			if e.pend[w] && !e.keyed[w] {
				e.keyed[w] = true
				fn, _, _ := e.latestNeighborFinish(int(w))
				e.pushFin(fn, w)
			}
		}
	}
	return nil
}

// materialize writes the engine's tours into sched with their times. The
// reference's final state is a full recomputeTourTimes of the final stop
// sequences; a clean tour holds exactly those arrivals, and its delay adds
// the return leg to the last finish as that walk does.
func (e *insEngine) materialize(sched *Schedule) {
	covers := make([]int, len(e.stopCov))
	for i, u := range e.stopCov {
		covers[i] = int(u)
	}
	for k := range sched.Tours {
		t := e.tours[k]
		if t.n == 0 {
			continue
		}
		t.ensureClean(len(t.chunks) - 1)
		stops := make([]Stop, 0, t.n)
		for _, c := range t.chunks {
			for i := range c.node {
				var cv []int
				if c.covLen[i] > 0 {
					lo, hi := c.covOff[i], c.covOff[i]+c.covLen[i]
					cv = covers[lo:hi:hi]
				}
				stops = append(stops, Stop{Node: int(c.node[i]), Arrive: c.arr[i], Duration: c.dur[i], Covers: cv})
			}
		}
		sched.Tours[k] = Tour{Stops: stops, Delay: t.delay(e.in)}
	}
}
