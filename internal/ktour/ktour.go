// Package ktour solves the K-optimal closed tour problem from the paper's
// Definition 2 (after Liang et al., ACM TOSN 2016): given a depot, a set of
// nodes each carrying a service (charging) duration, a travel speed and K
// vehicles, find K node-disjoint closed tours through the depot whose union
// covers all nodes, minimizing the longest tour delay, where a tour's delay
// is its travel time plus the service times of its nodes.
//
// The implementation follows the classic tour-splitting recipe behind the
// published 5-approximation: construct a single TSP tour over depot +
// nodes (MST-doubling, the construction that analysis assumes, refined by
// one 2-opt descent that never lengthens it), then split it into at most K
// consecutive segments via binary search on the target delay with a
// greedy packing feasibility test (Frederickson-style k-SPLITOUR
// generalized to node service times).
package ktour

import (
	"context"
	"fmt"

	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/tsp"
)

// Input describes an instance of the K-optimal closed tour problem.
type Input struct {
	// Depot is the common start/end location of all vehicles.
	Depot geom.Point
	// Nodes are the locations that must each be visited by exactly one
	// vehicle.
	Nodes []geom.Point
	// Service[i] is the time a vehicle must spend at Nodes[i] (e.g. the
	// charging duration tau(v)). Must have len(Nodes) entries; nil means
	// all zero.
	Service []float64
	// Speed is the constant vehicle travel speed in m/s. Must be > 0.
	Speed float64
	// K is the number of vehicles. Must be >= 1.
	K int
}

func (in Input) validate() error {
	if in.K < 1 {
		return fmt.Errorf("ktour: K = %d, want >= 1", in.K)
	}
	if in.Speed <= 0 {
		return fmt.Errorf("ktour: speed = %v, want > 0", in.Speed)
	}
	if !in.Depot.Finite() {
		return fmt.Errorf("ktour: depot = %v, want finite coordinates", in.Depot)
	}
	for i, p := range in.Nodes {
		if !p.Finite() {
			return fmt.Errorf("ktour: node[%d] = %v, want finite coordinates", i, p)
		}
	}
	if in.Service != nil && len(in.Service) != len(in.Nodes) {
		return fmt.Errorf("ktour: %d service times for %d nodes", len(in.Service), len(in.Nodes))
	}
	for i, s := range in.Service {
		if s < 0 || !geom.Finite(s) {
			return fmt.Errorf("ktour: service[%d] = %v, want finite >= 0", i, s)
		}
	}
	return nil
}

func (in Input) service(i int) float64 {
	if in.Service == nil {
		return 0
	}
	return in.Service[i]
}

// Solution holds K closed tours. Tours[k] lists node indices in visit
// order, excluding the depot (every tour implicitly starts and ends there);
// an empty slice means vehicle k stays at the depot. Delays[k] is the total
// delay of tour k and Longest is max over k.
type Solution struct {
	Tours   [][]int
	Delays  []float64
	Longest float64
}

// TourDelay returns the delay of visiting the given nodes in order as one
// closed tour from the depot: travel time along depot -> nodes... -> depot
// plus the service times of the visited nodes.
func TourDelay(in Input, tour []int) float64 {
	if len(tour) == 0 {
		return 0
	}
	t := geom.Dist(in.Depot, in.Nodes[tour[0]]) / in.Speed
	t += in.service(tour[0])
	for i := 1; i < len(tour); i++ {
		t += geom.Dist(in.Nodes[tour[i-1]], in.Nodes[tour[i]]) / in.Speed
		t += in.service(tour[i])
	}
	t += geom.Dist(in.Nodes[tour[len(tour)-1]], in.Depot) / in.Speed
	return t
}

// MinMax computes K node-disjoint closed tours covering all nodes with
// near-minimal longest delay.
//
// MinMax honors ctx between its phases (grand-tour construction, the
// binary search, the balance pass) and returns an error wrapping
// ctx.Err() on cancellation. Its total runtime is recorded under the
// kminmax span when ctx carries an obs.Tracer; inside it the grand tour's
// MST is recorded under kminmax/mst, the split search under kminmax/split,
// and the grand tour's 2-opt and each tour's balance-pass 2-opt under
// kminmax/2opt.
func MinMax(ctx context.Context, in Input) (*Solution, error) {
	if err := in.validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("ktour: %w", err)
	}
	defer obs.FromContext(ctx).Start(obs.StageKMinMax).End()
	n := len(in.Nodes)
	sol := &Solution{
		Tours:  make([][]int, in.K),
		Delays: make([]float64, in.K),
	}
	for k := range sol.Tours {
		sol.Tours[k] = []int{}
	}
	if n == 0 {
		return sol, nil
	}

	order := GrandTourOrder(ctx, in)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("ktour: %w", err)
	}

	// Binary search the smallest target delay T for which greedy packing
	// of the tour order needs at most K tours. lo is a per-node lower
	// bound (some vehicle must serve the worst single node); hi is the
	// delay of the whole grand tour done by one vehicle.
	splitSpan := obs.FromContext(ctx).Start(obs.StageKMinMaxSplit)
	l := tourLegs(in, order)
	lo, hi := 0.0, l.depot[0]+l.svc[0]
	for i := range n {
		if t := l.depot[i] + l.svc[i] + l.depot[i]; t > lo {
			lo = t
		}
		if i > 0 {
			hi += l.step[i]
			hi += l.svc[i]
		}
	}
	hi += l.depot[n-1]
	if l.split(hi, nil) > in.K {
		// Cannot happen (one tour always fits at hi), but guard anyway.
		hi *= 2
	}
	for iter := 0; iter < 60 && hi-lo > 1e-9*(1+hi); iter++ {
		if iter%8 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("ktour: %w", err)
			}
		}
		mid := (lo + hi) / 2
		if l.split(mid, nil) <= in.K {
			hi = mid
		} else {
			lo = mid
		}
	}
	ends := make([]int, in.K)
	parts := l.split(hi, ends)
	for k, start := 0, 0; k < parts; k++ {
		sol.Tours[k] = append([]int(nil), order[start:ends[k]]...)
		start = ends[k]
	}
	splitSpan.End()
	// Balance pass: locally improve each tour with 2-opt on its own nodes
	// (cannot increase any delay, so the max cannot increase).
	for k := range sol.Tours {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("ktour: %w", err)
		}
		improveTour(ctx, in, sol.Tours[k])
	}
	for k := range sol.Tours {
		sol.Delays[k] = TourDelay(in, sol.Tours[k])
		if sol.Delays[k] > sol.Longest {
			sol.Longest = sol.Delays[k]
		}
	}
	return sol, nil
}

// GrandTourOrder builds the single TSP tour over depot + nodes used as the
// splitting backbone, returning node indices (0..len(Nodes)-1) in visit
// order starting from the depot's successor. The tour is tsp.Construct's
// MST-doubling tour from the depot followed by one 2-opt descent, recorded
// under the kminmax/mst and kminmax/2opt spans; the descent never
// lengthens a tour, so the result is at most twice the MST's weight.
// Exported so callers can time or inspect the grand tour on its own.
func GrandTourOrder(ctx context.Context, in Input) []int {
	n := len(in.Nodes)
	if n == 0 {
		return nil
	}
	pts := make([]geom.Point, 0, n+1)
	pts = append(pts, in.Depot)
	pts = append(pts, in.Nodes...)
	tour := tsp.Construct(ctx, pts, 0)
	// The construction keeps the depot at Order[0].
	order := make([]int, n)
	for i, v := range tour.Order[1:] {
		order[i] = v - 1
	}
	return order
}

// legs holds the grand tour's travel and service times by position in
// the tour order, each computed once per MinMax: depot[i] is the travel
// time between the depot and the i-th node, step[i] the travel time
// from the (i-1)-th node to the i-th (step[0] is unused), and svc[i] the
// i-th node's service time. They are the same floats TourDelay adds.
type legs struct {
	depot, step, svc []float64
}

func tourLegs(in Input, order []int) legs {
	n := len(order)
	l := legs{depot: make([]float64, n), step: make([]float64, n), svc: make([]float64, n)}
	for i, v := range order {
		l.depot[i] = geom.Dist(in.Depot, in.Nodes[v]) / in.Speed
		if i > 0 {
			l.step[i] = geom.Dist(in.Nodes[order[i-1]], in.Nodes[v]) / in.Speed
		}
		l.svc[i] = in.service(v)
	}
	return l
}

// split greedily packs the tour order into consecutive closed tours each
// of delay at most target (a tour whose single node already exceeds
// target still gets its own tour, so the result is always a partition),
// and returns the number of tours, which is non-increasing in target.
// When ends is non-nil it receives each tour's end position (exclusive)
// and must have room for every tour. A tour's delay is grown float for
// float as TourDelay would sum it for the first node and then swap the
// return leg for the next step, service and return.
func (l legs) split(target float64, ends []int) int {
	n := len(l.svc)
	parts := 0
	for i := 0; i < n; {
		cost := l.depot[i] + l.svc[i] + l.depot[i]
		j := i + 1
		for ; j < n; j++ {
			next := cost - l.depot[j-1] + l.step[j] + l.svc[j] + l.depot[j]
			if next > target+1e-12 {
				break
			}
			cost = next
		}
		if ends != nil {
			ends[parts] = j
		}
		parts++
		i = j
	}
	return parts
}

// improveTour runs 2-opt on a single tour's nodes (with the depot pinned)
// in place, under the kminmax/2opt span of any tracer in ctx.
func improveTour(ctx context.Context, in Input, tour []int) {
	if len(tour) < 3 {
		return
	}
	defer obs.FromContext(ctx).Start(obs.StageKMinMaxTwoOpt).End()
	pts := make([]geom.Point, 0, len(tour)+1)
	pts = append(pts, in.Depot)
	for _, v := range tour {
		pts = append(pts, in.Nodes[v])
	}
	order := make([]int, len(pts))
	for i := range order {
		order[i] = i
	}
	t := tsp.Tour{Order: order}
	tsp.TwoOpt(&t, pts, 0)
	orig := append([]int(nil), tour...)
	for i := 1; i < len(t.Order); i++ {
		tour[i-1] = orig[t.Order[i]-1]
	}
}
