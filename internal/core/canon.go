package core

import (
	"cmp"
	"math"
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
// i.e. perm[rank] = original index. It LSD-radix-sorts the indices by the
// bits of their depot distances and reads the rest of the key from the
// requests only inside runs of equal distance. A depot distance is never
// negative, NaN or -0 (math.Hypot returns +0 for two zeros), and the bits
// of such floats, +Inf included, order as the numbers do, so the radix
// order is the distance order; the sort is stable, so equal distances
// keep index order. Ties of the whole key fall back to the index, which
// makes the order a stable sort's. That needs the key to be a strict weak
// order, which Instance.Validate guarantees by rejecting NaN coordinates
// and lifetimes; every caller validates first.
func canonicalOrder(in *Instance) []int {
	n := len(in.Requests)
	bits := make([]uint64, n)
	// hist[d][b] counts the distances whose byte d is b.
	var hist [8][256]int
	for i := range in.Requests {
		b := math.Float64bits(geom.Dist(in.Depot, in.Requests[i].Pos))
		bits[i] = b
		for d := range hist {
			hist[d][byte(b>>(8*d))]++
		}
	}
	perm, tmp := make([]int, n), make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for d := range hist {
		h := &hist[d]
		if n == 0 || h[byte(bits[0]>>(8*d))] == n {
			continue // every distance has the same byte d
		}
		sum := 0
		for b, c := range h {
			h[b], sum = sum, sum+c
		}
		for _, i := range perm {
			b := byte(bits[i] >> (8 * d))
			tmp[h[b]] = i
			h[b]++
		}
		perm, tmp = tmp, perm
	}
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && bits[perm[hi]] == bits[perm[lo]] {
			hi++
		}
		if hi-lo > 1 {
			slices.SortFunc(perm[lo:hi], func(i, j int) int {
				return compareDemand(&in.Requests[i], &in.Requests[j], i, j)
			})
		}
		lo = hi
	}
	return perm
}

// compareDemand orders two requests at the same depot distance, with
// indices i and j, by the rest of the canonical key: charge duration,
// lifetime, raw X, raw Y, then index.
func compareDemand(ra, rb *Request, i, j int) int {
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
	return cmp.Compare(i, j)
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
