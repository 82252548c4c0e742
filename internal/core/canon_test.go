package core

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/geom"
)

// canonicalOrderReference is the sort.SliceStable over a permutation that
// canonicalOrder replaced: the canonical key, then input order.
func canonicalOrderReference(in *Instance) []int {
	n := len(in.Requests)
	dist := make([]float64, n)
	for i := range in.Requests {
		dist[i] = geom.Dist(in.Depot, in.Requests[i].Pos)
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool {
		ra, rb := &in.Requests[perm[a]], &in.Requests[perm[b]]
		if dist[perm[a]] != dist[perm[b]] {
			return dist[perm[a]] < dist[perm[b]]
		}
		if ra.Duration != rb.Duration {
			return ra.Duration < rb.Duration
		}
		if ra.Lifetime != rb.Lifetime {
			return ra.Lifetime < rb.Lifetime
		}
		if ra.Pos.X != rb.Pos.X {
			return ra.Pos.X < rb.Pos.X
		}
		return ra.Pos.Y < rb.Pos.Y
	})
	return perm
}

// TestCanonicalOrderMatchesStableReference checks the key sort against
// the stable permutation sort on inputs built to tie: lattices around a
// centred depot (equal distances at every key level), duplicated
// requests (whole-key ties, left to input order), collinear points,
// far clusters, and signed zeros.
func TestCanonicalOrderMatchesStableReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	build := func(depot geom.Point, n int, pos func(i int) geom.Point, dur func(i int) float64) *Instance {
		in := &Instance{Depot: depot, Gamma: 2.7, Speed: 1, K: 2}
		for i := range n {
			in.Requests = append(in.Requests, Request{Pos: pos(i), Duration: dur(i), Lifetime: float64(i%3) * 86400})
		}
		return in
	}
	uniform := func(int) geom.Point { return geom.Pt(rng.Float64()*100, rng.Float64()*100) }
	lattice := func(i int) geom.Point { return geom.Pt(float64(i%21)*2.5, float64(i/21)*2.5) }
	few := func(i int) float64 { return float64(1+i%2) * 3600 }
	cases := map[string]*Instance{
		"uniform":        build(geom.Pt(50, 50), 1500, uniform, func(int) float64 { return rng.Float64() * 7200 }),
		"lattice-centre": build(geom.Pt(25, 25), 441, lattice, few),
		"lattice-same":   build(geom.Pt(25, 25), 441, lattice, func(int) float64 { return 3600 }),
		"duplicates":     build(geom.Pt(3, 3), 300, func(i int) geom.Point { return geom.Pt(float64(i%4), float64(i%3)) }, few),
		"collinear":      build(geom.Pt(0, 0), 200, func(i int) geom.Point { return geom.Pt(float64(i%50-25), 0) }, few),
		"far-clusters": build(geom.Pt(0, 0), 300, func(i int) geom.Point {
			return geom.Pt(float64(i%3)*1e6+float64(rng.Intn(3)), float64(rng.Intn(3)))
		}, few),
		"signed-zeros": build(geom.Pt(0, 0), 64, func(i int) geom.Point {
			x := 0.0
			if i%2 == 1 {
				x = -x
			}
			return geom.Pt(x, float64(i%4))
		}, few),
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) {
			if err := in.Validate(); err != nil {
				t.Fatal(err)
			}
			got, want := canonicalOrder(in), canonicalOrderReference(in)
			if !slices.Equal(got, want) {
				for r := range want {
					if got[r] != want[r] {
						t.Fatalf("rank %d: request %d, reference %d", r, got[r], want[r])
					}
				}
			}
		})
	}
}
