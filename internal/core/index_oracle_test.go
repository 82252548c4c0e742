package core

import (
	"cmp"
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/graph"
)

// indexCases are instances built to stress the equalities the planner
// draws from the charging graph and the canonical order: general
// position, coincident duplicates, a zero charging radius, a lattice whose
// pitch is exactly gamma (every link on the disk boundary), a lattice
// centred on the depot (equal depot distances everywhere), requests on
// the depot, and coordinates near ±1e308 whose depot distance overflows
// to +Inf.
func indexCases() map[string]*Instance {
	rng := rand.New(rand.NewSource(424242))
	build := func(depot geom.Point, gamma float64, n int, pos func(i int) geom.Point, dur func(i int) float64) *Instance {
		in := &Instance{Depot: depot, Gamma: gamma, Speed: 1, K: 2}
		for i := range n {
			in.Requests = append(in.Requests, Request{Pos: pos(i), Duration: dur(i), Lifetime: float64(i%3) * 86400})
		}
		return in
	}
	uniform := func(int) geom.Point { return geom.Pt(rng.Float64()*60, rng.Float64()*60) }
	randDur := func(int) float64 { return (1.2 + 0.3*rng.Float64()) * 3600 }
	few := func(i int) float64 { return float64(1+i%2) * 3600 }
	lattice := func(pitch float64) func(i int) geom.Point {
		return func(i int) geom.Point { return geom.Pt(float64(i%21)*pitch, float64(i/21)*pitch) }
	}
	dups := func(i int) geom.Point { return geom.Pt(float64(i%7), float64(i%5)) }
	return map[string]*Instance{
		"uniform":        build(geom.Pt(30, 30), 2.7, 500, uniform, randDur),
		"duplicates":     build(geom.Pt(3, 3), 2.7, 300, dups, few),
		"gamma-zero":     build(geom.Pt(3, 3), 0, 300, dups, few),
		"lattice-gamma":  build(geom.Pt(0, 0), 2.5, 441, lattice(2.5), few),
		"lattice-centre": build(geom.Pt(25, 25), 2.7, 441, lattice(2.5), few),
		"on-depot": build(geom.Pt(10, 10), 2.7, 200, func(i int) geom.Point {
			if i%4 == 0 {
				return geom.Pt(10, 10)
			}
			return geom.Pt(10+float64(i%9)-4, 10+float64(i%5)-2)
		}, few),
		"huge": build(geom.Pt(-1e308, 0), 2.7, 120, func(i int) geom.Point {
			x := []float64{-1e308, 1e308, 1.5e308, -1.5e308}[i%4]
			return geom.Pt(x, float64(i%3)*1e307)
		}, few),
	}
}

// TestCoversMatchGridQuery checks the equality the planner's steps 3-4
// rest on: the closed row row(v) ∪ {v} of the charging graph is the
// sorted grid query Neighbors(pts[v], gamma), for every request v. It then
// checks that buildCandidates' cover arena holds those sets for S_I and
// that H built on them equals graph.IntersectionGraph, which queries a
// grid of its own, row for row.
func TestCoversMatchGridQuery(t *testing.T) {
	for name, in := range indexCases() {
		t.Run(name, func(t *testing.T) {
			if err := in.Validate(); err != nil {
				t.Fatal(err)
			}
			pts := in.Positions()
			grid := geom.NewGrid(pts, in.Gamma)
			want := func(v int) []int32 {
				var out []int32
				for _, u := range grid.Neighbors(pts[v], in.Gamma, nil) {
					out = append(out, int32(u))
				}
				slices.Sort(out)
				return out
			}
			all := make([]int, len(pts))
			for i := range all {
				all[i] = i
			}
			cov := graph.UnitDisk(pts, in.Gamma).ClosedNeighborhoods(all)
			for v := range pts {
				if got := cov.Of(v); !slices.Equal(got, want(v)) {
					t.Fatalf("N_c+(%d) from G_c = %v, grid query = %v", v, got, want(v))
				}
			}
			c, err := buildCandidates(context.Background(), in, pts)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range c.si {
				if got := c.cover(i); !slices.Equal(got, want(v)) {
					t.Fatalf("candidate %d (request %d): cover %v, grid query %v", i, v, got, want(v))
				}
			}
			h := graph.IntersectionGraph(pts, c.si, in.Gamma)
			if h.Len() != c.h.Len() || h.NumEdges() != c.h.NumEdges() {
				t.Fatalf("H from G_c rows: %d vertices, %d edges; IntersectionGraph: %d, %d",
					c.h.Len(), c.h.NumEdges(), h.Len(), h.NumEdges())
			}
			for i := range h.Len() {
				if !slices.Equal(c.h.Neighbors(i), h.Neighbors(i)) {
					t.Fatalf("H row %d: %v from G_c rows, %v from IntersectionGraph", i, c.h.Neighbors(i), h.Neighbors(i))
				}
			}
		})
	}
}

// canonicalOrderBySort is the comparison sort canonicalOrder replaced,
// with its comparator kept here verbatim: depot distance, duration,
// lifetime, raw X, raw Y, then index.
func canonicalOrderBySort(in *Instance) []int {
	type key struct {
		dist float64
		i    int
	}
	keys := make([]key, len(in.Requests))
	for i := range in.Requests {
		keys[i] = key{geom.Dist(in.Depot, in.Requests[i].Pos), i}
	}
	slices.SortFunc(keys, func(a, b key) int {
		if c := cmp.Compare(a.dist, b.dist); c != 0 {
			return c
		}
		ra, rb := &in.Requests[a.i], &in.Requests[b.i]
		if c := cmp.Compare(ra.Duration, rb.Duration); c != 0 {
			return c
		}
		if c := cmp.Compare(ra.Lifetime, rb.Lifetime); c != 0 {
			return c
		}
		if c := cmp.Compare(ra.Pos.X, rb.Pos.X); c != 0 {
			return c
		}
		if c := cmp.Compare(ra.Pos.Y, rb.Pos.Y); c != 0 {
			return c
		}
		return cmp.Compare(a.i, b.i)
	})
	perm := make([]int, len(keys))
	for rank, k := range keys {
		perm[rank] = k.i
	}
	return perm
}

// TestCanonicalOrderMatchesComparatorSort checks the radix canonical
// order against the comparison sort on the tie-heavy index cases. The
// huge case must reach +Inf depot distances, the top of the radix order.
func TestCanonicalOrderMatchesComparatorSort(t *testing.T) {
	for name, in := range indexCases() {
		t.Run(name, func(t *testing.T) {
			if err := in.Validate(); err != nil {
				t.Fatal(err)
			}
			if got, want := canonicalOrder(in), canonicalOrderBySort(in); !slices.Equal(got, want) {
				t.Fatalf("radix order %v\ncomparator order %v", got, want)
			}
		})
	}
	huge := indexCases()["huge"]
	if d := geom.Dist(huge.Depot, huge.Requests[1].Pos); !math.IsInf(d, 1) {
		t.Fatalf("huge case: depot distance %v, want +Inf", d)
	}
}

// FuzzCanonicalOrderMatchesSort runs the canonical-order oracle on fuzzed
// instances snapped to tie: positions on a lattice of the fuzzed pitch
// around the depot, a few durations and lifetimes, some requests on the
// depot, and optionally coordinates scaled towards ±1e308, where depot
// distances overflow to +Inf. Equal distances are where a radix sort goes
// wrong.
func FuzzCanonicalOrderMatchesSort(f *testing.F) {
	f.Add(int64(1), uint16(441), 2.5, uint8(0), false)
	f.Add(int64(2), uint16(300), 1.0, uint8(3), false)
	f.Add(int64(3), uint16(200), 0.0, uint8(1), false)
	f.Add(int64(4), uint16(120), 1.0, uint8(2), true)
	f.Add(int64(5), uint16(500), 1e-3, uint8(7), false)
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint16, pitch float64, ties uint8, huge bool) {
		if !(pitch >= 0 && pitch < 1e6) {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw % 1500)
		side := 1 + int(ties%8)
		in := &Instance{Depot: geom.Pt(0, 0), Gamma: 2.7, Speed: 1, K: 2}
		scale := 1.0
		if huge {
			scale = 1e307
		}
		for range n {
			pos := geom.Pt(float64(rng.Intn(2*side+1)-side)*pitch*scale, float64(rng.Intn(2*side+1)-side)*pitch*scale)
			if rng.Intn(8) == 0 {
				pos = in.Depot
			}
			in.Requests = append(in.Requests, Request{
				Pos:      pos,
				Duration: float64(1+rng.Intn(2)) * 3600,
				Lifetime: float64(rng.Intn(3)) * 86400,
			})
		}
		if err := in.Validate(); err != nil {
			t.Skip()
		}
		if got, want := canonicalOrder(in), canonicalOrderBySort(in); !slices.Equal(got, want) {
			t.Fatalf("radix order %v\ncomparator order %v", got, want)
		}
	})
}
