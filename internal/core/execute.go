package core

import (
	"context"

	"repro/internal/geom"
	"repro/internal/obs"
)

// Realization is what one round's execution draws from a fault model:
// a factor on every travel leg and every sojourn, and one transient
// repair pause per tour. A nil *Realization executes the plan nominally;
// a non-nil one sets both factors.
type Realization struct {
	// TravelFactor stretches the leg from request from to request to;
	// -1 stands for the depot.
	TravelFactor func(from, to int) float64
	// ChargeFactor stretches the sojourn at request node.
	ChargeFactor func(node int) float64
	// Pauses holds each tour's repair outage, indexed by tour; a zero
	// Delay means none.
	Pauses []Pause
}

// Pause is one transient repair outage: the charger's timeline stops for
// Delay seconds at offset At from dispatch.
type Pause struct{ At, Delay float64 }

// pause returns tour k's pause, the zero Pause when there is none.
func (r *Realization) pause(k int) Pause {
	if r == nil || k >= len(r.Pauses) {
		return Pause{}
	}
	return r.Pauses[k]
}

// Execute simulates the K chargers driving the planned schedule and
// enforces the paper's hard constraint that no sensor is ever inside two
// active charging ranges at once: before starting to charge at a stop, a
// charger waits until every conflicting charging interval of another
// charger has finished. Two stops conflict when a common sensor lies
// within gamma of both sojourn locations (Coverage.Conflict).
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
	return (*Realization)(nil).Execute(ctx, in, planned)
}

// Execute is core.Execute under the realization's draws: every travel
// leg takes in.Travel times its TravelFactor and every sojourn its
// Duration times its ChargeFactor. A tour's pause is taken at the first
// arrival at or after its offset, or else extends the charge that the
// offset falls inside; conflict waits count from the post-pause arrival.
// Longest comes from the realized tour delays.
func (r *Realization) Execute(ctx context.Context, in *Instance, planned *Schedule) *Schedule {
	defer obs.FromContext(ctx).Start(obs.StageExecute).End()
	// leg is the travel time from request from at a to request to at b,
	// -1 standing for the depot.
	leg := func(from, to int, a, b geom.Point) float64 {
		t := in.Travel(a, b)
		if r != nil {
			t *= r.TravelFactor(from, to)
		}
		return t
	}

	out := &Schedule{Tours: make([]Tour, len(planned.Tours))}
	type cursor struct {
		idx    int     // next stop index
		arrive float64 // physical arrival time at the next stop
		paused bool    // the tour's pause has been taken
	}
	curs := make([]cursor, len(planned.Tours))
	ncov := 0
	for k, t := range planned.Tours {
		if len(t.Stops) > 0 {
			first := t.Stops[0].Node
			curs[k].arrive = leg(-1, first, in.Depot, in.Requests[first].Pos)
		}
		out.Tours[k].Stops = make([]Stop, 0, len(t.Stops))
		for _, s := range t.Stops {
			ncov += len(s.Covers)
		}
	}
	// The executed stops' covers are copies in one arena; each stop gets
	// a cap-limited window, so an append to one stop's covers reallocates
	// instead of overwriting the next stop's.
	covers := make([]int, 0, ncov)
	// committed charging intervals, for conflict lookups.
	type interval struct {
		node int
		end  float64
	}
	var committed []interval
	cov := NewCoverage(in.Positions(), in.Gamma)

	for {
		// Pick the charger whose next charging can start earliest: its
		// arrival, pushed by a pause struck before it (took), then past
		// every committed interval that conflicts with the stop. raw is
		// the post-pause arrival, so start - raw is pure conflict wait.
		// A pause struck mid-charge only lengthens the charge, so it is
		// resolved after the pick.
		pick := -1
		var start, raw float64
		var taken bool
		for k := range curs {
			c := &curs[k]
			if c.idx >= len(planned.Tours[k].Stops) {
				continue
			}
			a, took := c.arrive, false
			if p := r.pause(k); !c.paused && p.Delay > 0 && a >= p.At {
				a += p.Delay
				took = true
			}
			s := a
			node := planned.Tours[k].Stops[c.idx].Node
			for _, iv := range committed {
				if iv.end > s && cov.Conflict(iv.node, node) {
					s = iv.end
				}
			}
			if pick < 0 || s < start {
				pick, start, raw, taken = k, s, a, took
			}
		}
		if pick < 0 {
			break
		}
		c := &curs[pick]
		stops := planned.Tours[pick].Stops
		plan := stops[c.idx]
		dur := plan.Duration
		if r != nil {
			dur *= r.ChargeFactor(plan.Node)
		}
		if p := r.pause(pick); !c.paused && !taken && p.Delay > 0 && start < p.At && p.At < start+dur {
			dur += p.Delay
			taken = true
		}
		c.paused = c.paused || taken
		out.WaitTime += start - raw
		committed = append(committed, interval{node: plan.Node, end: start + dur})
		var cv []int
		if len(plan.Covers) > 0 {
			lo := len(covers)
			covers = append(covers, plan.Covers...)
			cv = covers[lo:len(covers):len(covers)]
		}
		out.Tours[pick].Stops = append(out.Tours[pick].Stops, Stop{
			Node:     plan.Node,
			Arrive:   start,
			Duration: dur,
			Covers:   cv,
		})
		// Advance the cursor. Stops are committed in arrival order, so
		// each tour's stops stay sorted by Arrive.
		c.idx++
		pos := in.Requests[plan.Node].Pos
		if c.idx < len(stops) {
			next := stops[c.idx].Node
			c.arrive = start + dur + leg(plan.Node, next, pos, in.Requests[next].Pos)
		} else {
			out.Tours[pick].Delay = start + dur + leg(plan.Node, -1, pos, in.Depot)
		}
		// Drop committed intervals that can no longer delay anything: no
		// charger starts before its arrival, and arrivals only grow, so
		// an interval ending by the earliest pending arrival is done with.
		// Pruning after every commit keeps the scan above to the few
		// intervals still running.
		minArrive := start
		for k, c := range curs {
			if c.idx < len(planned.Tours[k].Stops) && c.arrive < minArrive {
				minArrive = c.arrive
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
	out.refreshLongest()
	return out
}
