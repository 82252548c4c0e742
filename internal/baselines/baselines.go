// Package baselines implements the four benchmark algorithms the paper
// compares Appro against (Section VI-A). All four schedule under the
// classical one-to-one charging scheme — each stop charges exactly the
// sensor the charger parks at — which is why Appro's multi-node
// consolidation beats them on dense request sets:
//
//   - K-EDF: earliest-deadline-first dispatch in groups of K, each group
//     assigned to the K chargers to minimize total travel.
//   - NETWRAP (Wang et al., IEEE TC 2016): each free charger greedily picks
//     the pending sensor minimizing a weighted sum of travel time and
//     residual lifetime.
//   - AA (Wang et al., IEEE TC 2016): k-means partitions the sensors into K
//     groups, one charger tours each group. (The original additionally
//     drops a fraction of each group under the charger's energy budget; we
//     charge whole groups, which only helps this baseline.)
//   - K-minMax (Liang et al., ACM TOSN 2016): K node-disjoint closed tours
//     over all sensors minimizing the longest tour delay — the strongest
//     one-to-one baseline, with a published 5-approximation.
package baselines

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/assign"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/kmeans"
	"repro/internal/ktour"
	"repro/internal/tsp"

	"math/rand"
)

// urgency returns the sort key for deadline-driven baselines: residual
// lifetime when known, otherwise the negated charge duration so that the
// most-depleted sensors come first.
func urgency(r core.Request) float64 {
	if r.Lifetime > 0 {
		return r.Lifetime
	}
	return -r.Duration
}

// singleStop builds the one-to-one stop for request u.
func singleStop(u int) core.Stop {
	return core.Stop{Node: u, Covers: []int{u}}
}

// KEDF is the Earliest Deadline First baseline with K chargers.
type KEDF struct{}

// Name implements core.Planner.
func (KEDF) Name() string { return "K-EDF" }

// Plan implements core.Planner. Sensors are sorted by increasing residual
// lifetime and split into consecutive groups of K; within each group the
// assignment of its sensors to the K chargers minimizes the total travel
// distance from the chargers' current locations (an exact Hungarian
// assignment, O(K^3) per group).
func (KEDF) Plan(ctx context.Context, in *core.Instance) (*core.Schedule, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("baselines: K-EDF: %w", err)
	}
	order := make([]int, len(in.Requests))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return urgency(in.Requests[order[a]]) < urgency(in.Requests[order[b]])
	})

	s := &core.Schedule{Tours: make([]core.Tour, in.K)}
	pos := make([]geom.Point, in.K)
	for k := range pos {
		pos[k] = in.Depot
	}
	for start := 0; start < len(order); start += in.K {
		if (start/in.K)%16 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("baselines: K-EDF: %w", err)
			}
		}
		end := start + in.K
		if end > len(order) {
			end = len(order)
		}
		group := order[start:end]
		assignment, err := bestAssignment(in, pos, group)
		if err != nil {
			return nil, fmt.Errorf("baselines: K-EDF group assignment: %w", err)
		}
		for k, u := range assignment {
			if u < 0 {
				continue
			}
			s.Tours[k].Stops = append(s.Tours[k].Stops, withDuration(in, singleStop(u)))
			pos[k] = in.Requests[u].Pos
		}
	}
	core.Finalize(in, s)
	return s, nil
}

// bestAssignment maps chargers to the group's sensors (at most one each),
// minimizing total travel distance from the chargers' current positions,
// via a Hungarian assignment with sensors as rows and chargers as columns.
// The result has one entry per charger, -1 when the charger gets nothing
// (only possible when the group is smaller than K).
func bestAssignment(in *core.Instance, pos []geom.Point, group []int) ([]int, error) {
	k := len(pos)
	cost := make([][]float64, len(group))
	for gi, u := range group {
		cost[gi] = make([]float64, k)
		for c := range pos {
			cost[gi][c] = geom.Dist(pos[c], in.Requests[u].Pos)
		}
	}
	rowToCol, _, err := assign.Hungarian(cost)
	if err != nil {
		return nil, err
	}
	out := make([]int, k)
	for i := range out {
		out[i] = -1
	}
	for gi, c := range rowToCol {
		out[c] = group[gi]
	}
	return out, nil
}

// withDuration fills the stop's charging duration from its request.
func withDuration(in *core.Instance, st core.Stop) core.Stop {
	st.Duration = in.Requests[st.Node].Duration
	return st
}

// NETWRAP is the greedy on-demand baseline of Wang et al.: whenever a
// charger becomes free it travels to the pending sensor minimizing
// WTravel*travelTime + WLife*residualLifetime.
type NETWRAP struct {
	// WTravel and WLife weight the two criteria; both default to 1 when
	// zero (the units already agree: seconds).
	WTravel, WLife float64
}

// Name implements core.Planner.
func (NETWRAP) Name() string { return "NETWRAP" }

// Plan implements core.Planner with an event-driven greedy simulation of
// the K chargers.
func (p NETWRAP) Plan(ctx context.Context, in *core.Instance) (*core.Schedule, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	wt, wl := p.WTravel, p.WLife
	if wt == 0 {
		wt = 1
	}
	if wl == 0 {
		wl = 1
	}
	s := &core.Schedule{Tours: make([]core.Tour, in.K)}
	pos := make([]geom.Point, in.K)
	busyUntil := make([]float64, in.K)
	for k := range pos {
		pos[k] = in.Depot
	}
	remaining := make(map[int]bool, len(in.Requests))
	for u := range in.Requests {
		remaining[u] = true
	}
	for iter := 0; len(remaining) > 0; iter++ {
		if iter%64 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("baselines: NETWRAP: %w", err)
			}
		}
		// Earliest-free charger; ties by index.
		k := 0
		for j := 1; j < in.K; j++ {
			if busyUntil[j] < busyUntil[k] {
				k = j
			}
		}
		// Its best next sensor. The first candidate is taken whatever its
		// score, so a score that overflows to +Inf still picks one.
		bestU, bestScore := -1, math.Inf(1)
		for u := range remaining {
			r := in.Requests[u]
			life := r.Lifetime
			if life <= 0 {
				life = -r.Duration
			}
			score := wt*in.Travel(pos[k], r.Pos) + wl*life
			if bestU < 0 || score < bestScore || (score == bestScore && u < bestU) {
				bestU, bestScore = u, score
			}
		}
		delete(remaining, bestU)
		travel := in.Travel(pos[k], in.Requests[bestU].Pos)
		busyUntil[k] += travel + in.Requests[bestU].Duration
		pos[k] = in.Requests[bestU].Pos
		s.Tours[k].Stops = append(s.Tours[k].Stops, withDuration(in, singleStop(bestU)))
	}
	core.Finalize(in, s)
	return s, nil
}

// AA is the k-means partition baseline of Wang et al.: the sensors are
// split into K spatial groups, and charger k serves group k along a TSP
// tour of the group.
type AA struct {
	// Seed drives the k-means++ seeding.
	Seed int64
}

// Name implements core.Planner.
func (AA) Name() string { return "AA" }

// Plan implements core.Planner.
func (p AA) Plan(ctx context.Context, in *core.Instance) (*core.Schedule, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	s := &core.Schedule{Tours: make([]core.Tour, in.K)}
	if len(in.Requests) == 0 {
		core.Finalize(in, s)
		return s, nil
	}
	res, err := kmeans.Cluster(in.Positions(), in.K, rand.New(rand.NewSource(p.Seed)), 0)
	if err != nil {
		return nil, fmt.Errorf("baselines: AA clustering: %w", err)
	}
	for k, group := range res.Groups() {
		if len(group) == 0 {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("baselines: AA: %w", err)
		}
		ordered := tourOrder(in, group)
		for _, u := range ordered {
			s.Tours[k].Stops = append(s.Tours[k].Stops, withDuration(in, singleStop(u)))
		}
	}
	core.Finalize(in, s)
	return s, nil
}

// tourOrder returns the group's sensors in a short closed-tour order from
// the depot: the MST-doubling tour refined by 2-opt, as in ktour's grand
// tour.
func tourOrder(in *core.Instance, group []int) []int {
	pts := make([]geom.Point, 0, len(group)+1)
	pts = append(pts, in.Depot)
	for _, u := range group {
		pts = append(pts, in.Requests[u].Pos)
	}
	// Untraced: these are AA's per-group tours, not K-minMax kernels.
	t := tsp.Construct(context.Background(), pts, 0)
	out := make([]int, 0, len(group))
	for _, v := range t.Order {
		if v != 0 {
			out = append(out, group[v-1])
		}
	}
	return out
}

// KMinMax is the strongest one-to-one baseline: K node-disjoint closed
// tours over all sensors with minimized longest delay (Liang et al.).
type KMinMax struct{}

// Name implements core.Planner.
func (KMinMax) Name() string { return "K-minMax" }

// Plan implements core.Planner by delegating to the ktour solver with
// per-sensor service times t_v.
func (KMinMax) Plan(ctx context.Context, in *core.Instance) (*core.Schedule, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	service := make([]float64, len(in.Requests))
	for i, r := range in.Requests {
		service[i] = r.Duration
	}
	sol, err := ktour.MinMax(ctx, ktour.Input{
		Depot:   in.Depot,
		Nodes:   in.Positions(),
		Service: service,
		Speed:   in.Speed,
		K:       in.K,
	})
	if err != nil {
		return nil, fmt.Errorf("baselines: k-minmax: %w", err)
	}
	s := &core.Schedule{Tours: make([]core.Tour, in.K)}
	for k, tour := range sol.Tours {
		for _, u := range tour {
			s.Tours[k].Stops = append(s.Tours[k].Stops, withDuration(in, singleStop(u)))
		}
	}
	core.Finalize(in, s)
	return s, nil
}
