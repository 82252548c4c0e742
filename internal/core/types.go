// Package core implements the paper's primary contribution: Algorithm
// Appro, the first approximation algorithm for the longest charge delay
// minimization problem with K mobile chargers under the multi-node
// ("one-to-many") wireless charging scheme, subject to the constraint that
// no sensor may be charged by two chargers simultaneously.
//
// The package also provides the shared scheduling vocabulary used by the
// baseline algorithms (package baselines) and the simulator (package sim):
// instances, stops, tours, schedules, a conflict-aware executor, and an
// independent feasibility verifier.
package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/geom"
)

// Request is one to-be-charged sensor in V_s.
type Request struct {
	// Pos is the sensor's location.
	Pos geom.Point `json:"pos"`
	// Duration is t_v = (C_v - RE_v) / eta, the time in seconds a charger
	// must spend to bring the sensor to full capacity.
	Duration float64 `json:"duration"`
	// Lifetime is the sensor's residual lifetime in seconds at request
	// time — how long until its battery empties at the current draw.
	// Deadline-driven baselines (K-EDF, NETWRAP) order sensors by it.
	// A value <= 0 means unknown; planners then fall back to treating
	// the most-depleted sensors (largest Duration) as the most urgent.
	Lifetime float64 `json:"lifetime,omitempty"`
}

// Instance is one longest-charge-delay-minimization problem: a depot, the
// set V_s of charging requests, the charging radius gamma, the charger
// travel speed, and the number of chargers K.
type Instance struct {
	// Depot is where all K chargers start and end their closed tours.
	Depot geom.Point `json:"depot"`
	// Requests is the to-be-charged sensor set V_s.
	Requests []Request `json:"requests"`
	// Gamma is the wireless charging radius in meters (paper: 2.7 m).
	Gamma float64 `json:"gamma"`
	// Speed is the charger travel speed in m/s (paper: 1 m/s).
	Speed float64 `json:"speed"`
	// K is the number of mobile charging vehicles (paper: 1..5).
	K int `json:"k"`
}

// Validate reports the first structural problem with the instance, or nil.
// It rejects NaN and infinite coordinates and NaN lifetimes: planners
// would silently leave such requests uncovered, and the canonical request
// order (canon.go) needs every key to be a number.
func (in *Instance) Validate() error {
	if in.K < 1 {
		return fmt.Errorf("core: K = %d, want >= 1", in.K)
	}
	if in.Speed <= 0 || math.IsNaN(in.Speed) {
		return fmt.Errorf("core: speed = %v, want > 0", in.Speed)
	}
	if in.Gamma < 0 || math.IsNaN(in.Gamma) {
		return fmt.Errorf("core: gamma = %v, want >= 0", in.Gamma)
	}
	if !in.Depot.Finite() {
		return fmt.Errorf("core: depot = (%v, %v), want finite coordinates", in.Depot.X, in.Depot.Y)
	}
	for i, r := range in.Requests {
		if !r.Pos.Finite() {
			return fmt.Errorf("core: request %d position = (%v, %v), want finite coordinates", i, r.Pos.X, r.Pos.Y)
		}
		if r.Duration < 0 || !geom.Finite(r.Duration) {
			return fmt.Errorf("core: request %d duration = %v, want finite >= 0", i, r.Duration)
		}
		if math.IsNaN(r.Lifetime) {
			return fmt.Errorf("core: request %d lifetime = NaN, want a number", i)
		}
	}
	return nil
}

// Positions returns the request locations as a slice, in request order.
func (in *Instance) Positions() []geom.Point {
	pts := make([]geom.Point, len(in.Requests))
	for i, r := range in.Requests {
		pts[i] = r.Pos
	}
	return pts
}

// Travel returns the travel time between two points at the instance speed.
func (in *Instance) Travel(a, b geom.Point) float64 {
	return geom.Dist(a, b) / in.Speed
}

// Stop is one sojourn of a charger in a tour. All times are seconds
// relative to the dispatch of the K chargers from the depot (t = 0).
type Stop struct {
	// Node is the index into Instance.Requests of the sensor the charger
	// parks at (sojourn locations are co-located with sensors).
	Node int `json:"node"`
	// Arrive is when the charger begins charging at this stop.
	Arrive float64 `json:"arrive"`
	// Duration is tau'(v): the planned charging time at this stop, i.e.
	// the longest remaining charge duration among the sensors newly
	// served here (Eq. (3)/(10) of the paper).
	Duration float64 `json:"duration"`
	// Covers lists the request indices attributed to this stop: sensors
	// within gamma of the stop that were not attributed to any earlier
	// stop. Every request appears in exactly one stop's Covers.
	Covers []int `json:"covers"`
}

// Finish returns the charging finish time f(v) of the stop.
func (s Stop) Finish() float64 { return s.Arrive + s.Duration }

// Tour is the closed charging tour of one charger: depot -> stops -> depot.
type Tour struct {
	// Stops in visit order. Empty means the charger never leaves the depot.
	Stops []Stop `json:"stops"`
	// Delay is the total tour delay T'(k): travel plus charging, from
	// leaving the depot to returning to it.
	Delay float64 `json:"delay"`
}

// Schedule is a complete solution: one tour per charger.
type Schedule struct {
	// Tours has exactly Instance.K entries.
	Tours []Tour `json:"tours"`
	// Longest is max over tours of Tour.Delay — the objective value.
	Longest float64 `json:"longest"`
	// WaitTime is the total time chargers spent waiting at stops to avoid
	// charging a sensor simultaneously with another charger. It is zero
	// for planned (un-executed) schedules and for one-to-one baselines.
	WaitTime float64 `json:"wait_time,omitempty"`
}

// NumStops returns the total number of stops across all tours.
func (s *Schedule) NumStops() int {
	n := 0
	for _, t := range s.Tours {
		n += len(t.Stops)
	}
	return n
}

// Planner is anything that can plan charging tours for an instance: the
// paper's Appro (see ApproPlanner) and the baseline heuristics in package
// baselines all satisfy it, which is what lets the simulator and the
// benchmark harness treat them uniformly.
type Planner interface {
	// Name returns the algorithm's display name (e.g. "Appro", "K-EDF").
	Name() string
	// Plan produces a schedule for the instance. Implementations must
	// cover every request and return node-disjoint tours.
	//
	// Plan honors ctx: when the context is cancelled or its deadline
	// passes, implementations return promptly with an error wrapping
	// ctx.Err() (check with errors.Is against context.Canceled or
	// context.DeadlineExceeded). When ctx carries an obs.Tracer,
	// implementations record their stage spans on it.
	Plan(ctx context.Context, in *Instance) (*Schedule, error)
}

// Options carries the planner options. Seed is the only one, and only
// the seeded BiLevel contender reads it. Algorithm 1 fixes its own steps
// (the max-degree MIS at steps 2 and 4, insertion in ascending f_N order
// at step 6), so Appro takes no option.
type Options struct {
	// Seed drives a seeded planner's randomness.
	Seed int64
}

// ApproPlanner adapts Appro to the Planner interface.
type ApproPlanner struct{}

// Name implements Planner.
func (ApproPlanner) Name() string { return "Appro" }

// Plan implements Planner by running Algorithm Appro and then executing the
// plan so the returned schedule is conflict-free.
func (ApproPlanner) Plan(ctx context.Context, in *Instance) (*Schedule, error) {
	s, err := Appro(ctx, in, Options{})
	if err != nil {
		return nil, err
	}
	return Execute(ctx, in, s), nil
}

// FinalizeTour rewrites the Arrive times of every stop in the tour from the
// stop sequence and durations and refreshes the tour delay. Baseline
// planners use it after arranging their stop sequences.
func FinalizeTour(in *Instance, t *Tour) { recomputeTourTimes(in, t) }

// Finalize recomputes all tour times and the schedule's Longest delay.
func Finalize(in *Instance, s *Schedule) {
	for k := range s.Tours {
		recomputeTourTimes(in, &s.Tours[k])
	}
	s.refreshLongest()
}

// recomputeTourTimes rewrites the Arrive times of every stop in the tour
// from the stop sequence and durations, and refreshes the tour delay:
// arrive(i) = finish(i-1) + travel, with the first stop reached from the
// depot and the delay including the return leg. This is the closed form of
// the paper's Eqs. (6), (11) and (12).
func recomputeTourTimes(in *Instance, t *Tour) {
	cur := in.Depot
	now := 0.0
	for i := range t.Stops {
		pos := in.Requests[t.Stops[i].Node].Pos
		now += in.Travel(cur, pos)
		t.Stops[i].Arrive = now
		now += t.Stops[i].Duration
		cur = pos
	}
	if len(t.Stops) > 0 {
		now += in.Travel(cur, in.Depot)
	}
	t.Delay = now
}

// refreshLongest recomputes Schedule.Longest from the tour delays.
func (s *Schedule) refreshLongest() {
	s.Longest = 0
	for _, t := range s.Tours {
		if t.Delay > s.Longest {
			s.Longest = t.Delay
		}
	}
}
