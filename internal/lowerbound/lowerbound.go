// Package lowerbound computes provable lower bounds on the optimal longest
// charge delay L_OPT of an instance. The bounds make the approximation
// quality of Algorithm Appro measurable without solving the NP-hard
// problem: for any schedule S, S.Longest / Compute(in).Value is an upper
// bound on S's true approximation factor.
//
// Three bounds are combined:
//
//  1. Farthest request: some charger must come within gamma of the
//     farthest request v and charge it, so
//     L_OPT >= 2*max(0, d(depot,v)-gamma)/s + t_v.
//  2. Packing work: for any set P of requests with pairwise distance
//     > 2*gamma, no single stop charges two members of P, so their
//     charging durations occupy distinct charger time; spread over K
//     chargers, L_OPT >= sum_{v in P} t_v / K.
//  3. Packing travel: the K closed tours all pass through the depot, so
//     their union is a connected subgraph spanning, for each v in P, some
//     point within gamma of v. An MST over {depot} union P with edge
//     weights max(0, d - 2*gamma) is therefore a lower bound on the total
//     tour length, and the longest tour is at least a 1/K share.
//
// Bounds 2 and 3 charge the same K tours with disjoint quantities (service
// time vs travel time), so they add before dividing by K.
package lowerbound

import (
	"math"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/mst"
)

// Bound holds the individual and combined lower bounds, in seconds.
type Bound struct {
	// Farthest is bound 1.
	Farthest float64
	// PackingWork is bound 2 for the chosen packing.
	PackingWork float64
	// PackingTravel is bound 3 for the same packing.
	PackingTravel float64
	// PackingSize is |P|.
	PackingSize int
	// Value is the best combined bound:
	// max(Farthest, PackingWork + PackingTravel).
	Value float64
}

// Compute returns lower bounds for the instance. It returns the zero Bound
// for an empty or invalid instance.
func Compute(in *core.Instance) Bound {
	var b Bound
	if in.Validate() != nil || len(in.Requests) == 0 {
		return b
	}
	// Bound 1: farthest request.
	for _, r := range in.Requests {
		reach := geom.Dist(in.Depot, r.Pos) - in.Gamma
		if reach < 0 {
			reach = 0
		}
		if v := 2*reach/in.Speed + r.Duration; v > b.Farthest {
			b.Farthest = v
		}
	}

	packed := pack(in)
	b.PackingSize = len(packed)

	// Bound 2: packed charging work per charger.
	work := 0.0
	for _, i := range packed {
		work += in.Requests[i].Duration
	}
	b.PackingWork = work / float64(in.K)

	// Bound 3: travel over {depot} union P, per charger. Two valid
	// shrunken travel bounds are combined: (a) the MST with every edge
	// reduced by 2*gamma (tours may stop up to gamma away from both
	// endpoints), and (b) the convex-hull perimeter reduced by
	// 2*pi*gamma (a closed curve meeting every gamma-disk, inflated by
	// gamma, must enclose all the centers).
	pts := make([]geom.Point, 0, len(packed)+1)
	pts = append(pts, in.Depot)
	for _, i := range packed {
		pts = append(pts, in.Requests[i].Pos)
	}
	// The shrunken weight max(0, d-2*gamma) is nondecreasing in d, so a
	// Euclidean MST is also a minimum tree under it (cycle property).
	travel := 0.0
	tree := mst.EuclideanSparse(pts, 0)
	for v, p := range tree.Parent {
		if p >= 0 {
			if w := geom.Dist(pts[v], pts[p]) - 2*in.Gamma; w > 0 {
				travel += w
			}
		}
	}
	if hull := geom.HullPerimeter(pts) - 2*math.Pi*in.Gamma; hull > travel {
		travel = hull
	}
	b.PackingTravel = travel / in.Speed / float64(in.K)

	b.Value = b.Farthest
	if combined := b.PackingWork + b.PackingTravel; combined > b.Value {
		b.Value = combined
	}
	return b
}

// pack returns the greedy max-weight 2*gamma packing: requests scanned by
// decreasing duration, ties by ascending index, each kept when it lies
// farther than 2*gamma from everything kept so far. Each kept request
// marks its neighbours within 2*gamma blocked, and a request is kept
// exactly when it is not blocked. That is the all-pairs scan's rule read
// from the other end of each pair: geom.Dist is symmetric bit for bit, and
// a grid over all requests, queried at geom.PairRadius(2*gamma), finds
// every pair the predicate accepts, so only the distance predicate
// decides. The grid is queried once per kept request, not per candidate.
func pack(in *core.Instance) []int {
	pos := in.Positions()
	reach := geom.PairRadius(2 * in.Gamma)
	grid := geom.NewGrid(pos, reach)
	blocked := make([]bool, len(pos))
	var packed, near []int
	for _, i := range durationOrder(in.Requests) {
		if blocked[i] {
			continue
		}
		packed = append(packed, int(i))
		near = grid.Neighbors(pos[i], reach, near)
		for _, j := range near {
			if geom.Dist(pos[i], pos[j]) <= 2*in.Gamma {
				blocked[j] = true
			}
		}
	}
	return packed
}

// durationOrder returns the request indices by decreasing duration, ties
// by ascending index: the order of a stable sort on duration. It is an
// LSD radix sort, one byte a pass, on the inverted bits of each duration;
// radix passes are stable, so equal keys keep their index order, and a
// pass whose byte is the same in every key is skipped. A valid duration is
// finite and not below zero, so its bits order like its value, except -0:
// its sign bit would sort it apart from +0, which it equals, and adding +0
// turns it into +0.
func durationOrder(reqs []core.Request) []int32 {
	n := len(reqs)
	key, idx := make([]uint64, 2*n), make([]int32, 2*n)
	src, dst := key[:n], key[n:]
	srcIdx, dstIdx := idx[:n], idx[n:]
	var count [8][256]int
	for i, r := range reqs {
		k := ^math.Float64bits(r.Duration + 0)
		src[i], srcIdx[i] = k, int32(i)
		for d := range count {
			count[d][byte(k>>(8*d))]++
		}
	}
	for d := range count {
		c := &count[d]
		if n == 0 || c[byte(src[0]>>(8*d))] == n {
			continue
		}
		sum := 0
		for b, m := range c {
			c[b], sum = sum, sum+m
		}
		for j, k := range src {
			b := byte(k >> (8 * d))
			dst[c[b]], dstIdx[c[b]] = k, srcIdx[j]
			c[b]++
		}
		src, dst = dst, src
		srcIdx, dstIdx = dstIdx, srcIdx
	}
	return srcIdx
}
