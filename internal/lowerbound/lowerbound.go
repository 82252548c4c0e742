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

	"sort"

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
// decreasing duration (stable), each kept when it lies farther than
// 2*gamma from everything kept so far. Only a kept request within 2*gamma
// can reject a candidate, so a grid over all requests, queried at
// geom.PairRadius(2*gamma), narrows the comparisons to the candidate's
// neighbors; the distance predicate alone decides, so the packing is
// exactly the all-pairs scan's.
func pack(in *core.Instance) []int {
	order := make([]int, len(in.Requests))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, c int) bool {
		return in.Requests[order[a]].Duration > in.Requests[order[c]].Duration
	})
	pos := in.Positions()
	reach := geom.PairRadius(2 * in.Gamma)
	grid := geom.NewGrid(pos, reach)
	kept := make([]bool, len(pos))
	var packed, near []int
	for _, i := range order {
		near = grid.Neighbors(pos[i], reach, near)
		ok := true
		for _, j := range near {
			if kept[j] && geom.Dist(pos[i], pos[j]) <= 2*in.Gamma {
				ok = false
				break
			}
		}
		if ok {
			kept[i] = true
			packed = append(packed, i)
		}
	}
	return packed
}
