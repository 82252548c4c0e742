package core

import (
	"cmp"
	"slices"
	"sort"

	"repro/internal/geom"
)

// Canonical request ordering.
//
// Algorithm Appro's tie-breaks — MIS vertex selection, coverage
// attribution, the insertion scan — all fall back to request *indices*,
// which are an artifact of input order, not of the problem: V_s is a set
// of sensors. Planning on a canonically ordered copy of the instance and
// mapping the resulting stop/cover indices back makes Appro a function of
// the sensor set itself, which is what the metamorphic test suite proves:
//
//   - permuting the requests yields the bit-identical schedule (modulo the
//     index relabeling), because the canonical order erases input order;
//   - translating or rotating the whole field preserves the canonical
//     order (the primary key is the rigid-motion-invariant depot
//     distance), so the tour structure survives and delays move only by
//     floating-point noise.
//
// The key orders by distance to the depot, then charge duration, then
// lifetime, then raw coordinates as a final tiebreak for the measure-zero
// case of sensors equidistant from the depot with identical demands.

// canonicalOrder returns the request indices sorted by the canonical key,
// i.e. perm[rank] = original index. It sorts a pointer-free (depot
// distance, index) array and reads the rest of the key from the requests
// only on a distance tie. Ties of the whole key fall back to the index,
// which makes the order a stable sort's. That needs the key to be a
// strict weak order, which Instance.Validate guarantees by rejecting NaN
// coordinates and lifetimes; every caller validates first.
func canonicalOrder(in *Instance) []int {
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

// canonicalize returns the instance with requests in canonical order plus
// the perm mapping canonical rank -> original index. When the input is
// already canonical it is returned as-is with a nil perm, so the common
// steady path allocates nothing.
func canonicalize(in *Instance) (*Instance, []int) {
	perm := canonicalOrder(in)
	identity := true
	for i, p := range perm {
		if p != i {
			identity = false
			break
		}
	}
	if identity {
		return in, nil
	}
	canon := *in
	canon.Requests = make([]Request, len(in.Requests))
	for rank, orig := range perm {
		canon.Requests[rank] = in.Requests[orig]
	}
	return &canon, perm
}

// remapSchedule rewrites a schedule planned in canonical index space back
// to the caller's original request indices. Times and delays are untouched
// — only Stop.Node and Stop.Covers are relabeled (Covers re-sorted so they
// stay ascending). A nil perm is the identity.
func remapSchedule(s *Schedule, perm []int) {
	if perm == nil {
		return
	}
	for k := range s.Tours {
		stops := s.Tours[k].Stops
		for i := range stops {
			stops[i].Node = perm[stops[i].Node]
			for j, u := range stops[i].Covers {
				stops[i].Covers[j] = perm[u]
			}
			sort.Ints(stops[i].Covers)
		}
	}
}
