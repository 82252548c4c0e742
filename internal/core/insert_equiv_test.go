package core

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/ktour"
)

// approOrderedReference is the seed implementation of approOrdered, kept
// verbatim (per-candidate cover slices, full pending rescans, slice
// splices, full recomputeTourTimes per insert, map bookkeeping). The fast
// engine in insert.go must reproduce its schedules byte for byte; this
// copy is the oracle TestInsertionMatchesReference checks against.
func approOrderedReference(ctx context.Context, in *Instance) (*Schedule, error) {
	n := len(in.Requests)
	sched := &Schedule{Tours: make([]Tour, in.K)}
	if n == 0 {
		return sched, nil
	}
	pts := in.Positions()

	gc := graph.UnitDisk(pts, in.Gamma)
	si := graph.MaximalIndependentSet(gc, graph.MISMaxDegree)
	h := graph.IntersectionGraph(pts, si, in.Gamma)
	vh := graph.MaximalIndependentSet(h, graph.MISMaxDegree)

	grid := geom.NewGrid(pts, in.Gamma)
	cover := make([][]int, len(si))
	var buf []int
	for i, node := range si {
		buf = grid.Neighbors(pts[node], in.Gamma, buf)
		cs := make([]int, len(buf))
		copy(cs, buf)
		sort.Ints(cs)
		cover[i] = cs
	}

	service := make([]float64, len(vh))
	vhPts := make([]geom.Point, len(vh))
	for i, hIdx := range vh {
		vhPts[i] = pts[si[hIdx]]
		for _, u := range cover[hIdx] {
			if d := in.Requests[u].Duration; d > service[i] {
				service[i] = d
			}
		}
	}

	kt, err := ktour.MinMax(ctx, ktour.Input{
		Depot:   in.Depot,
		Nodes:   vhPts,
		Service: service,
		Speed:   in.Speed,
		K:       in.K,
	})
	if err != nil {
		return nil, err
	}

	covered := make([]bool, n)
	inTour := make([]int, len(si))
	for i := range inTour {
		inTour[i] = -1
	}
	for k, tour := range kt.Tours {
		for _, vi := range tour {
			hIdx := vh[vi]
			stop := Stop{Node: si[hIdx], Duration: service[vi]}
			for _, u := range cover[hIdx] {
				if !covered[u] {
					covered[u] = true
					stop.Covers = append(stop.Covers, u)
				}
			}
			sched.Tours[k].Stops = append(sched.Tours[k].Stops, stop)
			inTour[hIdx] = k
		}
		recomputeTourTimes(in, &sched.Tours[k])
	}

	pending := make([]int, 0, len(si)-len(vh))
	inVH := make(map[int]bool, len(vh))
	for _, hIdx := range vh {
		inVH[hIdx] = true
	}
	for i := range si {
		if !inVH[i] {
			pending = append(pending, i)
		}
	}

	siIndexByNode := make([]int, n)
	for i := range siIndexByNode {
		siIndexByNode[i] = -1
	}
	for i, node := range si {
		siIndexByNode[node] = i
	}
	stopPos := make(map[int][2]int, len(si))
	for k := range sched.Tours {
		for p, st := range sched.Tours[k].Stops {
			stopPos[siIndexByNode[st.Node]] = [2]int{k, p}
		}
	}
	finishOf := func(hIdx int) float64 {
		tp := stopPos[hIdx]
		return sched.Tours[tp[0]].Stops[tp[1]].Finish()
	}
	latestNeighborFinish := func(hIdx int) (fn float64, best int, ok bool) {
		fn, best = math.Inf(-1), -1
		for _, w := range h.Neighbors(hIdx) {
			if inTour[w] < 0 {
				continue
			}
			if f := finishOf(int(w)); f > fn {
				fn, best = f, int(w)
			}
		}
		return fn, best, best >= 0
	}

	for len(pending) > 0 {
		pick := -1
		var pickFN float64
		var pickAfter int
		for pi, hIdx := range pending {
			fn, after, ok := latestNeighborFinish(hIdx)
			if !ok {
				continue
			}
			if pick < 0 || fn < pickFN {
				pick, pickFN, pickAfter = pi, fn, after
			}
		}
		if pick < 0 {
			pick, pickAfter = 0, -1
		}
		hIdx := pending[pick]
		pending = append(pending[:pick], pending[pick+1:]...)

		var newCovers []int
		for _, u := range cover[hIdx] {
			if !covered[u] {
				newCovers = append(newCovers, u)
			}
		}
		if len(newCovers) == 0 {
			continue
		}
		dur := 0.0
		for _, u := range newCovers {
			if d := in.Requests[u].Duration; d > dur {
				dur = d
			}
		}
		stop := Stop{Node: si[hIdx], Duration: dur, Covers: newCovers}
		for _, u := range newCovers {
			covered[u] = true
		}

		var k, pos int
		if pickAfter >= 0 {
			tp := stopPos[pickAfter]
			k, pos = tp[0], tp[1]+1
		} else {
			k = 0
			for ki := range sched.Tours {
				if sched.Tours[ki].Delay < sched.Tours[k].Delay {
					k = ki
				}
			}
			pos = len(sched.Tours[k].Stops)
		}
		sched.Tours[k].Stops = slices.Insert(sched.Tours[k].Stops, pos, stop)
		recomputeTourTimes(in, &sched.Tours[k])
		inTour[hIdx] = k
		stopPos[hIdx] = [2]int{k, pos}
		stops := sched.Tours[k].Stops
		for p := pos + 1; p < len(stops); p++ {
			stopPos[siIndexByNode[stops[p].Node]] = [2]int{k, p}
		}
	}

	sched.refreshLongest()
	return sched, nil
}

// equivInstance builds a uniform random instance in the paper's regime.
func equivInstance(n, k int, seed int64, side float64) *Instance {
	rng := rand.New(rand.NewSource(seed))
	in := &Instance{Depot: geom.Pt(side/2, side/2), Gamma: 2.7, Speed: 1, K: k}
	for i := 0; i < n; i++ {
		in.Requests = append(in.Requests, Request{
			Pos:      geom.Pt(rng.Float64()*side, rng.Float64()*side),
			Duration: (1.2 + 0.3*rng.Float64()) * 3600,
		})
	}
	return in
}

// TestInsertionMatchesReference checks the heap/chunk insertion engine
// against the retired reference implementation: the schedules must be
// byte-identical (reflect.DeepEqual over every stop, cover list, arrival
// and delay) across sizes up to n=1200, charger counts and densities from
// a sparse 150 m field to a crowded 30 m one.
func TestInsertionMatchesReference(t *testing.T) {
	type cfg struct {
		name string
		n, k int
		seed int64
		side float64
	}
	cfgs := []cfg{
		{"tiny", 12, 1, 1, 20},
		{"small", 80, 2, 2, 60},
		{"mid", 250, 2, 3, 100},
		{"mid-k5", 250, 5, 4, 100},
		{"dense", 400, 3, 5, 60},
		{"sparse", 150, 2, 6, 150},
		{"crowded", 300, 2, 7, 30},
		{"mid-k3", 250, 3, 8, 80},
		// One charger puts more than a chunk of stops in one tour: this
		// run splits a chunk and inserts once after the last stop of a
		// non-final chunk, whose successor's leg lives in the next chunk
		// (TestInsertLegsMatchFullWalk pins both cases directly).
		{"mid-k1", 250, 1, 10, 70},
	}
	if !testing.Short() {
		cfgs = append(cfgs,
			cfg{"n800", 800, 3, 12, 100},
			cfg{"n1200", 1200, 4, 13, 100},
			cfg{"n1200-dense", 1200, 4, 14, 70},
		)
	}
	for _, tc := range cfgs {
		t.Run(tc.name, func(t *testing.T) {
			in := equivInstance(tc.n, tc.k, tc.seed, tc.side)
			want, err := approOrderedReference(context.Background(), in)
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			got, err := approOrdered(context.Background(), in)
			if err != nil {
				t.Fatalf("engine: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				for k := range want.Tours {
					if !reflect.DeepEqual(got.Tours[k], want.Tours[k]) {
						t.Logf("tour %d diverges: got %d stops delay %v, want %d stops delay %v",
							k, len(got.Tours[k].Stops), got.Tours[k].Delay,
							len(want.Tours[k].Stops), want.Tours[k].Delay)
					}
				}
				t.Fatalf("schedule diverged from reference (longest got %v want %v)",
					got.Longest, want.Longest)
			}
		})
	}
}

// TestInsertionMatchesReferenceCoincident exercises the degenerate
// geometries the random configs cannot hit: coincident points (zero
// travel deltas, finish-time ties) and collinear chains. Under gamma 1
// the chain's links are gamma apart; gamma 1.5 puts both neighbours of a
// link inside its disk, and gamma 3 also brings the clusters, 3 m apart,
// into one another's range.
func TestInsertionMatchesReferenceCoincident(t *testing.T) {
	for _, shape := range []struct {
		gamma float64
		k     int
	}{{1, 2}, {1.5, 3}, {3, 1}} {
		in := &Instance{Depot: geom.Pt(0, 0), Gamma: shape.gamma, Speed: 1, K: shape.k}
		// Three co-located clusters plus a chain at unit spacing.
		for i := 0; i < 6; i++ {
			in.Requests = append(in.Requests, Request{Pos: geom.Pt(5, 5), Duration: 3600})
			in.Requests = append(in.Requests, Request{Pos: geom.Pt(8, 5), Duration: 1800})
			in.Requests = append(in.Requests, Request{Pos: geom.Pt(5, 8), Duration: 2700})
		}
		for i := 0; i < 12; i++ {
			in.Requests = append(in.Requests, Request{Pos: geom.Pt(float64(i), 0.5), Duration: 600})
		}
		want, err := approOrderedReference(context.Background(), in)
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		got, err := approOrdered(context.Background(), in)
		if err != nil {
			t.Fatalf("engine: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("gamma %v, K %d: schedule diverged from reference", shape.gamma, shape.k)
		}
	}
}

// TestInsertLegsMatchFullWalk drives the engine's tour edits directly and
// checks after each one that every stop's stored leg is the in.Travel
// float from its predecessor, and that every arrival and the tour delay
// equal a full recomputeTourTimes walk, bit for bit. The edits reach each
// edge case of the leg cache: an insert after the last stop of a
// non-final chunk (the successor is the next chunk's first stop), with
// and without a split; an insert at the head of a non-first chunk (the
// predecessor is the previous chunk's last stop); the tour's first
// position (the predecessor is the depot); its end; and random inserts
// that keep splitting chunks.
func TestInsertLegsMatchFullWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const placed, inserts = 300, 400
	in := &Instance{Depot: geom.Pt(50, 50), Gamma: 2.7, Speed: 1.3, K: 1}
	for range placed + inserts {
		in.Requests = append(in.Requests, Request{
			Pos:      geom.Pt(rng.Float64()*100, rng.Float64()*100),
			Duration: rng.Float64() * 3600,
		})
	}
	n := len(in.Requests)
	e := &insEngine{in: in, posChunk: make([]*wchunk, n), posIdx: make([]int32, n)}
	tour := &wtour{}
	for h := range placed {
		e.rawAppend(tour, int32(h), int32(h), in.Requests[h].Duration, 0, 0)
	}
	check := func(step string) {
		t.Helper()
		ref := Tour{}
		for _, c := range tour.chunks {
			for _, node := range c.node {
				ref.Stops = append(ref.Stops, Stop{Node: int(node), Duration: in.Requests[node].Duration})
			}
		}
		recomputeTourTimes(in, &ref)
		tour.ensureClean(len(tour.chunks) - 1)
		i, prev := 0, in.Depot
		for ci, c := range tour.chunks {
			if c.cidx != ci || len(c.leg) != len(c.node) || len(c.arr) != len(c.node) {
				t.Fatalf("%s: chunk %d malformed (cidx %d, %d legs, %d arrivals, %d stops)", step, ci, c.cidx, len(c.leg), len(c.arr), len(c.node))
			}
			for li, node := range c.node {
				pos := in.Requests[node].Pos
				if c.leg[li] != in.Travel(prev, pos) {
					t.Fatalf("%s: stop %d (chunk %d, index %d): leg %v, travel %v", step, i, ci, li, c.leg[li], in.Travel(prev, pos))
				}
				if c.arr[li] != ref.Stops[i].Arrive {
					t.Fatalf("%s: stop %d arrives %v, full walk %v", step, i, c.arr[li], ref.Stops[i].Arrive)
				}
				if e.posChunk[c.hidx[li]] != c || e.posIdx[c.hidx[li]] != int32(li) {
					t.Fatalf("%s: stop %d has a stale position", step, i)
				}
				prev = pos
				i++
			}
		}
		if i != len(ref.Stops) || tour.n != i {
			t.Fatalf("%s: %d stops in chunks, count %d, want %d", step, i, tour.n, len(ref.Stops))
		}
		if d := tour.delay(in); d != ref.Delay {
			t.Fatalf("%s: delay %v, full walk %v", step, d, ref.Delay)
		}
	}
	check("initial placement")
	if len(tour.chunks) != 3 || len(tour.chunks[0].node) != chunkMax {
		t.Fatalf("initial placement: %d chunks, first of %d stops; want 3, %d", len(tour.chunks), len(tour.chunks[0].node), chunkMax)
	}
	next := int32(placed)
	insert := func(step string, ci, li int) {
		t.Helper()
		c := tour.chunks[ci]
		e.insertAt(tour, c, li, next, next, in.Requests[next].Duration, 0, 0)
		next++
		check(step)
	}
	insert("after the last stop of a full non-final chunk", 0, chunkMax)
	if len(tour.chunks) != 4 {
		t.Fatalf("inserting into a full chunk left %d chunks, want 4 after the split", len(tour.chunks))
	}
	insert("after the last stop of a non-final chunk", 0, len(tour.chunks[0].node))
	insert("at the head of a non-first chunk", 1, 0)
	insert("at the head of the tour", 0, 0)
	last := len(tour.chunks) - 1
	insert("at the end of the tour", last, len(tour.chunks[last].node))
	for int(next) < n {
		ci := rng.Intn(len(tour.chunks))
		insert("random insert", ci, rng.Intn(len(tour.chunks[ci].node)+1))
	}
	if len(tour.chunks) < 8 {
		t.Fatalf("%d random inserts left %d chunks; want splits to have made at least 8", n-placed-5, len(tour.chunks))
	}
}
