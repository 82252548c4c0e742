package core

import (
	"context"
	"sort"

	"repro/internal/geom"
	"repro/internal/obs"
)

// Execute simulates the K chargers driving the planned schedule and
// enforces the paper's hard constraint that no sensor is ever inside two
// active charging ranges at once: before starting to charge at a stop, a
// charger waits until every conflicting charging interval of another
// charger has finished. Two stops conflict when a common sensor lies
// within gamma of both sojourn locations.
//
// The returned schedule has the actual (possibly delayed) stop times, the
// actual tour delays T'(k), and WaitTime aggregating all conflict waits.
// Appro's insertion rule makes waits rare; one-to-one baselines never wait
// because their charging is directional (Covers are singletons and the
// conflict test is skipped when gamma is zero in the instance they plan
// against).
//
// Execute runs to completion regardless of ctx's cancellation state — a
// half-executed schedule would be unusable — but records its runtime
// under the execute span when ctx carries an obs.Tracer.
func Execute(ctx context.Context, in *Instance, planned *Schedule) *Schedule {
	defer obs.FromContext(ctx).Start(obs.StageExecute).End()
	out := &Schedule{Tours: make([]Tour, len(planned.Tours))}
	type cursor struct {
		tour    int
		idx     int     // next stop index
		arrive  float64 // physical arrival time at next stop
		pos     geom.Point
		done    bool
		elapsed float64 // time of last committed action
	}
	curs := make([]*cursor, len(planned.Tours))
	for k := range planned.Tours {
		c := &cursor{tour: k, pos: in.Depot}
		if len(planned.Tours[k].Stops) == 0 {
			c.done = true
		} else {
			first := planned.Tours[k].Stops[0]
			c.arrive = in.Travel(in.Depot, in.Requests[first.Node].Pos)
		}
		curs[k] = c
		out.Tours[k].Stops = make([]Stop, 0, len(planned.Tours[k].Stops))
	}

	// committed charging intervals, for conflict lookups.
	type interval struct {
		node       int
		start, end float64
	}
	var committed []interval

	// Stops conflict when some sensor is within gamma of both sojourn
	// locations, i.e. N_c+(a) and N_c+(b) intersect. Coverage sets are
	// computed on demand via a spatial grid and cached per node.
	grid := geom.NewGrid(in.Positions(), in.Gamma)
	coverCache := make(map[int][]int)
	coverOf := func(node int) []int {
		if cs, ok := coverCache[node]; ok {
			return cs
		}
		cs := grid.Neighbors(in.Requests[node].Pos, in.Gamma, nil)
		sort.Ints(cs)
		coverCache[node] = cs
		return cs
	}
	conflicts := func(a, b int) bool {
		if geom.Dist(in.Requests[a].Pos, in.Requests[b].Pos) > 2*in.Gamma {
			return false
		}
		ca, cb := coverOf(a), coverOf(b)
		i, j := 0, 0
		for i < len(ca) && j < len(cb) {
			switch {
			case ca[i] == cb[j]:
				return true
			case ca[i] < cb[j]:
				i++
			default:
				j++
			}
		}
		return false
	}

	for {
		// Pick the charger whose next charging can start earliest.
		pick := -1
		var pickStart float64
		for k, c := range curs {
			if c.done {
				continue
			}
			st := planned.Tours[c.tour].Stops[c.idx]
			start := c.arrive
			for _, iv := range committed {
				if iv.end > start && conflicts(iv.node, st.Node) {
					start = iv.end
				}
			}
			if pick < 0 || start < pickStart {
				pick, pickStart = k, start
			}
		}
		if pick < 0 {
			break
		}
		c := curs[pick]
		plan := planned.Tours[c.tour].Stops[c.idx]
		out.WaitTime += pickStart - c.arrive
		committed = append(committed, interval{node: plan.Node, start: pickStart, end: pickStart + plan.Duration})
		out.Tours[c.tour].Stops = append(out.Tours[c.tour].Stops, Stop{
			Node:     plan.Node,
			Arrive:   pickStart,
			Duration: plan.Duration,
			Covers:   append([]int(nil), plan.Covers...),
		})
		// Advance the cursor.
		c.pos = in.Requests[plan.Node].Pos
		c.elapsed = pickStart + plan.Duration
		c.idx++
		if c.idx >= len(planned.Tours[c.tour].Stops) {
			c.done = true
			out.Tours[c.tour].Delay = c.elapsed + in.Travel(c.pos, in.Depot)
		} else {
			next := planned.Tours[c.tour].Stops[c.idx]
			c.arrive = c.elapsed + in.Travel(c.pos, in.Requests[next.Node].Pos)
		}
		// Drop committed intervals that can no longer overlap anything:
		// all chargers' current arrival lower bounds exceed their end.
		if len(committed) > 64 {
			minArrive := pickStart
			for _, cc := range curs {
				if !cc.done && cc.arrive < minArrive {
					minArrive = cc.arrive
				}
			}
			kept := committed[:0]
			for _, iv := range committed {
				if iv.end > minArrive {
					kept = append(kept, iv)
				}
			}
			committed = kept
		}
	}
	out.refreshLongest()
	// Sort stops of each tour by arrival for stable downstream reporting
	// (they are already in arrival order by construction).
	for k := range out.Tours {
		stops := out.Tours[k].Stops
		sort.SliceStable(stops, func(i, j int) bool { return stops[i].Arrive < stops[j].Arrive })
	}
	return out
}
