package mst

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// boxedHeap is the container/heap min-heap primForest used before its
// typed heap, kept as the reference: its pop order on equal keys is the
// order the typed heap must reproduce.
type boxedHeap struct{ items []primItem }

func (h *boxedHeap) Len() int           { return len(h.items) }
func (h *boxedHeap) Less(i, j int) bool { return h.items[i].d < h.items[j].d }
func (h *boxedHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *boxedHeap) Push(x any)         { h.items = append(h.items, x.(primItem)) }
func (h *boxedHeap) Pop() any {
	it := h.items[len(h.items)-1]
	h.items = h.items[:len(h.items)-1]
	return it
}

// primForestReference is primForest over the boxed container/heap.
func primForestReference(pts []geom.Point, neighbors func(v int) []int32, root int) ([]int, float64) {
	n := len(pts)
	parent := make([]int, n)
	dist := make([]float64, n)
	inTree := make([]bool, n)
	for i := range parent {
		parent[i] = -1
		dist[i] = math.Inf(1)
	}
	dist[root] = 0
	pq := &boxedHeap{items: []primItem{{v: root, d: 0}}}
	total, reached, next := 0.0, 0, 0
	for {
		for pq.Len() > 0 {
			it := heap.Pop(pq).(primItem)
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
					heap.Push(pq, primItem{v: wv, d: d})
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
		heap.Push(pq, primItem{v: next, d: 0})
	}
	return parent, total
}

// TestPrimHeapMatchesContainerHeap drives the typed heap and a
// container/heap through the same random pushes and pops, with keys drawn
// from a handful of values so almost every comparison is a tie, and
// requires the same item at every pop.
func TestPrimHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := range 50 {
		var typed primHeap
		ref := &boxedHeap{}
		keys := 1 + rng.Intn(4)
		for op := range 2000 {
			if ref.Len() == 0 || rng.Intn(3) > 0 {
				it := primItem{v: op, d: float64(rng.Intn(keys))}
				typed.push(it)
				heap.Push(ref, it)
				continue
			}
			got, want := typed.pop(), heap.Pop(ref).(primItem)
			if got != want {
				t.Fatalf("trial %d op %d: typed heap popped %+v, container/heap %+v", trial, op, got, want)
			}
		}
		for ref.Len() > 0 {
			if got, want := typed.pop(), heap.Pop(ref).(primItem); got != want {
				t.Fatalf("trial %d drain: typed heap popped %+v, container/heap %+v", trial, got, want)
			}
		}
		if len(typed) != 0 {
			t.Fatalf("trial %d: typed heap kept %d items", trial, len(typed))
		}
	}
}

// TestPrimForestMatchesContainerHeap checks that primForest picks the
// same parents as over container/heap on inputs where equal distances
// abound (exact lattices, duplicates, collinear runs) and where the
// candidate graph is disconnected (far clusters, restarts): with ties,
// the parents depend on the heap's pop order, not just on the weights.
func TestPrimForestMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	lattice := func(side int) []geom.Point {
		var pts []geom.Point
		for i := range side * side {
			pts = append(pts, geom.Pt(float64(i%side)*2.5, float64(i/side)*2.5))
		}
		return pts
	}
	cases := map[string][]geom.Point{
		"lattice-20": lattice(20),
		"lattice-9":  lattice(9),
	}
	var dup, line, far, uni []geom.Point
	for i := range 200 {
		dup = append(dup, geom.Pt(float64(rng.Intn(6)), float64(rng.Intn(6))))
		line = append(line, geom.Pt(float64(i%37), 0))
		far = append(far, geom.Pt(float64(i%4)*1e5+float64(rng.Intn(5)), float64(rng.Intn(5))))
		uni = append(uni, geom.Pt(rng.Float64()*100, rng.Float64()*100))
	}
	cases["duplicates"], cases["collinear"], cases["far-clusters"], cases["uniform"] = dup, line, far, uni
	for name, pts := range cases {
		t.Run(name, func(t *testing.T) {
			neighbors := NewCandidates(pts).Row
			got, gotW := primForest(pts, neighbors, 0)
			want, wantW := primForestReference(pts, neighbors, 0)
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("parent[%d] = %d, container/heap gives %d", v, got[v], want[v])
				}
			}
			if gotW != wantW {
				t.Fatalf("weight %v, container/heap gives %v", gotW, wantW)
			}
		})
	}
}
