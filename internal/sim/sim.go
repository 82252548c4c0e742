// Package sim runs the paper's evaluation protocol: a WRSN monitored for a
// period T_M (one year) during which sensors deplete according to their
// routing-derived power draw, send charging requests when their residual
// energy falls below a threshold, and are served round-by-round by K mobile
// chargers driving the tours a core.Planner produces.
//
// A round begins when all chargers are at the depot and at least one
// request is pending: the base station snapshots the pending set V_s, the
// planner builds K closed tours, the chargers execute them, and every
// served sensor is refilled at its attributed stop's charging finish time.
// Sensors keep depleting (and possibly dying) while they wait; per-sensor
// dead time is the paper's Fig. 3(b)/4(b)/5(b) metric, and the per-round
// longest tour duration is the Fig. 3(a)/4(a)/5(a) metric.
package sim

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/wrsn"
)

// Year is the paper's monitoring period T_M in seconds.
const Year = 365 * 24 * 3600.0

// DefaultBatchWindow is the dispatch batching window the figure harness
// uses: 24 hours. Sensors request at 20% residual capacity, which leaves
// them about a week of slack at typical draws, so accumulating requests
// for up to a day before dispatching the chargers is safe and matches the
// round-based dispatch the paper describes (the base station identifies a
// *set* V_s of lifetime-critical sensors per round).
const DefaultBatchWindow = 24 * 3600.0

// Config controls one simulation run.
type Config struct {
	// Duration is the monitored period in seconds; 0 means one year.
	Duration float64
	// Threshold is the request threshold as a fraction of battery
	// capacity; 0 means the paper's 20%.
	Threshold float64
	// BatchWindow is the minimum time between consecutive dispatches:
	// after a round starts, the next round starts no earlier than
	// BatchWindow later (and in any case not before all chargers are
	// back). 0 disables batching — chargers redispatch as soon as they
	// are home and a request is pending.
	BatchWindow float64
	// Dispatch selects the dispatch protocol: DispatchSynchronized (the
	// paper's round-based protocol, the default) or DispatchIndependent
	// (each charger redispatches on its own).
	Dispatch DispatchMode
	// ChargeLevel is the partial-charging target as a fraction of battery
	// capacity: chargers top sensors up to ChargeLevel * capacity rather
	// than full (the partial charging model of Liang et al., IEEE/ACM ToN
	// 2017 — the paper's reference [15]). 0 means 1.0 (full charging,
	// the paper's model). Must exceed Threshold or sensors would request
	// again immediately.
	ChargeLevel float64
	// MinSlack makes the request rule lifetime-aware, as in the paper's
	// notion of "lifetime-critical" sensors: a sensor requests charging
	// when its residual energy falls below Threshold OR its residual
	// lifetime falls below MinSlack seconds. Relay-heavy sensors near
	// the base station drain far faster than the fleet average (the
	// energy-hole effect), and a pure energy threshold would let them
	// die before the next dispatch. 0 means the default of 48 hours;
	// negative disables the rule.
	MinSlack float64
	// MaxRounds caps the number of charging rounds as a safety valve;
	// 0 means no cap.
	MaxRounds int
	// Trace, when non-nil, receives a JSONL stream of TraceEvent lines:
	// one "dispatch" per round (per charger dispatch under
	// DispatchIndependent), one "charge" per sensor refill, one "dead" per
	// battery depletion, plus fault events. Lines come in commit order,
	// not time order, so T is authoritative; a write error fails the run.
	Trace io.Writer
	// Verify runs the feasibility verifier on every round's schedule and
	// records violations in the result. One-to-one schedules (every stop
	// covering exactly its own sensor) are verified under point-charging
	// semantics, where the multi-node overlap constraint does not apply.
	// Under a fault plan the verifier sees the realized (post-fault)
	// schedule; requests the fault model left unserved are exempt from
	// the coverage check.
	Verify bool
	// Faults configures deterministic fault injection: MCV breakdowns
	// with online tour repair, travel/charging delay noise, sensor churn
	// and request bursts. nil (or a zero plan) runs fault-free; see
	// fault.Plan. Runs with an identical plan are identical.
	Faults *fault.Plan
}

func (c Config) withDefaults() Config {
	if c.Duration <= 0 {
		c.Duration = Year
	}
	if c.Threshold <= 0 {
		c.Threshold = 0.2
	}
	switch {
	case c.MinSlack == 0:
		c.MinSlack = 48 * 3600
	case c.MinSlack < 0:
		c.MinSlack = 0
	}
	if c.ChargeLevel <= 0 || c.ChargeLevel > 1 {
		c.ChargeLevel = 1
	}
	return c
}

// Round records one charging round.
type Round struct {
	// Start is the dispatch time in seconds since the simulation began.
	Start float64
	// Batch is |V_s|, the number of requests served.
	Batch int
	// Stops is the number of sojourn stops across the K tours.
	Stops int
	// Longest is the round's longest tour duration in seconds.
	Longest float64
	// Wait is the chargers' total conflict-avoidance wait time.
	Wait float64
}

// Result aggregates one simulation run.
type Result struct {
	// Planner is the algorithm's display name.
	Planner string
	// Rounds holds per-round records in time order.
	Rounds []Round
	// AvgLongest is the mean over rounds of the longest tour duration,
	// in seconds — the paper's "average longest tour duration".
	AvgLongest float64
	// MaxLongest is the worst round's longest tour duration in seconds.
	MaxLongest float64
	// AvgDeadPerSensor is the mean over sensors of total dead time during
	// the monitored period, in seconds — the paper's "average dead
	// duration per sensor".
	AvgDeadPerSensor float64
	// DeadSensRounds counts sensors that died at least once.
	DeadSensors int
	// Charges is the number of sensor charges delivered.
	Charges int
	// EnergyDelivered is the total energy charged into sensors in joules.
	EnergyDelivered float64
	// Violations counts feasibility violations across all rounds when
	// Config.Verify is set. It should always be zero.
	Violations int
	// FirstViolation is the first verifier violation encountered, in
	// Kind: Detail form, or empty. It pins down what went wrong without
	// re-running the verifier.
	FirstViolation string
	// Faults aggregates fault-injection and recovery activity; nil when
	// the run had no fault plan.
	Faults *FaultStats
	// End is the actual simulation end time (the last round may overrun
	// the configured duration; metrics are normalized by End).
	End float64
}

// sensorState tracks one sensor's continuous energy trajectory.
type sensorState struct {
	residual float64
	draw     float64
	capacity float64
	last     float64 // time of last update
	deadAt   float64 // time residual hit zero, or -1 while alive
	dead     float64 // accumulated dead seconds
	died     bool
}

// advanceTo moves the sensor's state forward to time t, accumulating dead
// time while the battery is empty.
func (s *sensorState) advanceTo(t float64) {
	if t <= s.last {
		return
	}
	if s.deadAt >= 0 {
		s.dead += t - s.last
		s.last = t
		return
	}
	dt := t - s.last
	need := s.residual
	if s.draw > 0 && s.draw*dt >= need {
		// Dies partway through the interval.
		tDead := s.last + need/s.draw
		s.residual = 0
		s.deadAt = tDead
		s.died = true
		s.dead += t - tDead
	} else {
		s.residual -= s.draw * dt
	}
	s.last = t
}

// chargeAt refills the sensor to level*capacity at absolute time t and
// returns the energy delivered (zero if the sensor already holds more).
func (s *sensorState) chargeAt(t, level float64) float64 {
	s.advanceTo(t)
	target := level * s.capacity
	if target < s.residual {
		return 0
	}
	delivered := target - s.residual
	s.residual = target
	s.deadAt = -1
	return delivered
}

// Run simulates the network under the given planner and configuration.
// The input network is not modified. K is the number of chargers.
//
// Run honors ctx: it checks for cancellation before every charging round
// and passes ctx to the planner, so a deadline aborts even a mid-plan
// round promptly. On cancellation it returns BOTH a partial Result —
// rounds completed so far, books closed at the cancellation time — and an
// error wrapping ctx.Err(); callers that want the partial data check the
// error with errors.Is and still read the result. When ctx carries an
// obs.Tracer, per-round verification is recorded under the verify span
// and the planner records its own stages.
func Run(ctx context.Context, nw *wrsn.Network, k int, planner core.Planner, cfg Config) (*Result, error) {
	if err := nw.Validate(); err != nil {
		return nil, err
	}
	if k < 1 {
		return nil, fmt.Errorf("sim: k = %d, want >= 1", k)
	}
	if planner == nil {
		return nil, fmt.Errorf("sim: nil planner")
	}
	cfg = cfg.withDefaults()
	inj, err := fault.New(cfg.Faults)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if !inj.Enabled() {
		inj = nil
	}

	states := make([]sensorState, len(nw.Sensors))
	for i := range nw.Sensors {
		s := &nw.Sensors[i]
		states[i] = sensorState{
			residual: s.Battery.Residual,
			draw:     s.Draw,
			capacity: s.Battery.Capacity,
			deadAt:   -1,
		}
	}
	res := &Result{Planner: planner.Name()}
	// Per-sensor request trigger: residual energy below the fraction
	// threshold, or residual lifetime below MinSlack.
	targets := make([]float64, len(states))
	for i := range states {
		targets[i] = cfg.Threshold * states[i].capacity
		if t := cfg.MinSlack * states[i].draw; t > targets[i] {
			targets[i] = t
		}
		// A sensor whose trigger exceeds its charge target would
		// request forever; cap just below the target so it requests at
		// every dispatch instead of deadlocking the clock-advance logic.
		if cap := cfg.ChargeLevel * states[i].capacity; targets[i] >= cap {
			targets[i] = 0.99 * cap
		}
	}
	trace := newTracer(cfg.Trace)
	tr := obs.FromContext(ctx)
	var fstats *FaultStats
	if inj != nil {
		fstats = &FaultStats{SurvivingMCVs: k}
	}
	world := newFaultWorld(inj, cfg.Duration, len(states), fstats, trace, tr)
	if cfg.Dispatch == DispatchIndependent {
		return runIndependent(ctx, nw, k, planner, cfg, states, targets, inj, world, fstats, trace)
	}
	res.Faults = fstats

	now := 0.0
	fleet := k
	var longestAcc stats.Accumulator
	var runErr error

	for now < cfg.Duration {
		if err := ctx.Err(); err != nil {
			runErr = fmt.Errorf("sim: cancelled at t=%.0f: %w", now, err)
			break
		}
		if cfg.MaxRounds > 0 && len(res.Rounds) >= cfg.MaxRounds {
			break
		}
		// Apply world-level fault events (sensor churn, request bursts)
		// up to the current time, then collect pending requests.
		world.advance(now, states, targets)
		pending := pendingRequests(states, targets, now)
		if len(pending) == 0 {
			// Jump to the next threshold crossing — but never over a
			// pending world event, which can spawn requests of its own.
			next := nextRequestTime(states, targets, now)
			if wn := world.next(); wn+1e-6 < next {
				next = wn + 1e-6
			}
			if math.IsInf(next, 1) || next >= cfg.Duration {
				break
			}
			now = next
			continue
		}
		// Snapshot batteries into the network view for instance building.
		inst := buildInstance(nw, states, pending, fleet, cfg.ChargeLevel)
		sched, err := planner.Plan(ctx, inst)
		if err != nil {
			// A cancelled planner aborts the round but not the
			// bookkeeping: close the books and hand back the partial
			// result alongside the context error.
			if cerr := ctx.Err(); cerr != nil {
				runErr = fmt.Errorf("sim: cancelled at t=%.0f: %w", now, cerr)
				break
			}
			return nil, fmt.Errorf("sim: planner %s at t=%.0f: %w", planner.Name(), now, err)
		}
		// Realize this round under the fault model: breakdown draws,
		// online tour repair, delay noise. sched becomes the realized
		// schedule; unserved lists the requests no surviving MCV could
		// take (they stay pending for later rounds).
		var unserved []int
		if world != nil {
			exec, rf := applyRoundFaults(ctx, world, len(res.Rounds), now, inst, sched)
			fleet -= rf.newDead
			fstats.SurvivingMCVs = fleet
			sched = exec
			unserved = rf.unserved
		}
		if cfg.Verify {
			sp := tr.Start(obs.StageVerify)
			vs := core.VerifyScheme(inst, sched)
			if len(unserved) > 0 {
				vs = dropUncovered(vs)
			}
			res.Violations += len(vs)
			if res.FirstViolation == "" && len(vs) > 0 {
				res.FirstViolation = vs[0].String()
			}
			sp.End()
		}
		// Apply charges at their absolute finish times, in time order so
		// dead-time accounting is exact.
		type chargeEvent struct {
			sensor int
			at     float64
		}
		var events []chargeEvent
		for _, tour := range sched.Tours {
			for _, stop := range tour.Stops {
				for _, ri := range stop.Covers {
					events = append(events, chargeEvent{
						sensor: pending[ri],
						at:     now + stop.Finish(),
					})
				}
			}
		}
		sort.Slice(events, func(i, j int) bool { return events[i].at < events[j].at })
		served := len(pending) - len(unserved)
		if len(events) != served {
			return nil, fmt.Errorf("sim: planner %s served %d of %d requests", planner.Name(), len(events), served)
		}
		for _, ev := range events {
			// A sensor may have died while waiting; its death time is
			// only discovered lazily, so the "dead" line may carry an
			// earlier T than preceding lines — T is authoritative.
			states[ev.sensor].advanceTo(ev.at)
			if deadAt := states[ev.sensor].deadAt; deadAt >= 0 {
				trace.emit(TraceEvent{Kind: "dead", T: deadAt, Sensor: ev.sensor})
			}
			delivered := states[ev.sensor].chargeAt(ev.at, cfg.ChargeLevel)
			res.EnergyDelivered += delivered
			res.Charges++
			trace.emit(TraceEvent{Kind: "charge", T: ev.at, Sensor: ev.sensor, Energy: delivered})
		}
		res.Rounds = append(res.Rounds, Round{
			Start:   now,
			Batch:   served,
			Stops:   sched.NumStops(),
			Longest: sched.Longest,
			Wait:    sched.WaitTime,
		})
		trace.emit(TraceEvent{
			Kind: "dispatch", T: now, Charger: -1,
			Batch: served, Stops: sched.NumStops(), Delay: sched.Longest,
		})
		tr.Add("sim.rounds", 1)
		tr.Add("sim.charges", int64(served))
		longestAcc.Add(sched.Longest)
		if sched.Longest > res.MaxLongest {
			res.MaxLongest = sched.Longest
		}
		// The next round starts once all chargers are back at the depot
		// and the batching window has elapsed.
		nextDispatch := now + sched.Longest
		if withWindow := now + cfg.BatchWindow; withWindow > nextDispatch {
			nextDispatch = withWindow
		}
		if sched.Longest <= 0 {
			if world == nil {
				// Defensive: a zero-delay schedule with pending requests
				// would spin forever.
				return nil, fmt.Errorf("sim: planner %s returned a zero-delay schedule for %d requests", planner.Name(), len(pending))
			}
			// Under faults a round can legitimately serve nothing (full
			// fleet loss); keep the clock moving.
			if min := now + 3600; nextDispatch < min {
				nextDispatch = min
			}
		}
		now = nextDispatch
		if fleet <= 0 {
			// Every MCV is permanently lost: no further rounds can run.
			// The books stay open to the configured horizon so the
			// sensors' dead time accrues honestly against the outage.
			runErr = fmt.Errorf("sim: t=%.0f: %w", res.Rounds[len(res.Rounds)-1].Start, fault.ErrFleetLost)
			now = cfg.Duration
			break
		}
	}

	// Close out the books at the end time. A cancelled run closes at the
	// cancellation time instead of the configured horizon, so the partial
	// metrics describe only the simulated span.
	res.End = now
	if runErr == nil && res.End < cfg.Duration {
		res.End = cfg.Duration
	}
	world.advance(res.End, states, targets)
	totalDead := 0.0
	for i := range states {
		states[i].advanceTo(res.End)
		totalDead += states[i].dead
		if states[i].died {
			res.DeadSensors++
		}
	}
	if len(states) > 0 {
		res.AvgDeadPerSensor = totalDead / float64(len(states))
	}
	res.AvgLongest = longestAcc.Mean()
	if err := trace.Err(); err != nil {
		return nil, fmt.Errorf("sim: trace: %w", err)
	}
	return res, runErr
}

// pendingRequests returns sensor IDs below their request trigger at time
// now, after advancing their states.
func pendingRequests(states []sensorState, targets []float64, now float64) []int {
	var out []int
	for i := range states {
		states[i].advanceTo(now)
		if states[i].residual < targets[i] {
			out = append(out, i)
		}
	}
	return out
}

// nextRequestTime returns the earliest future time any sensor crosses its
// request trigger, or +Inf.
func nextRequestTime(states []sensorState, targets []float64, now float64) float64 {
	next := math.Inf(1)
	for i := range states {
		s := &states[i]
		if s.draw <= 0 {
			continue
		}
		if s.residual < targets[i] {
			return now
		}
		t := now + (s.residual-targets[i])/s.draw
		if t < next {
			next = t
		}
	}
	// Nudge past the exact crossing so the strict < comparison fires.
	return next + 1e-6
}

// buildInstance converts the pending sensors into a core.Instance with
// up-to-date residuals and lifetimes; stop durations target
// level * capacity (level 1 = the paper's full charging).
func buildInstance(nw *wrsn.Network, states []sensorState, pending []int, k int, level float64) *core.Instance {
	in := &core.Instance{
		Depot: nw.Depot,
		Gamma: nw.Gamma,
		Speed: nw.Speed,
		K:     k,
	}
	for _, id := range pending {
		st := &states[id]
		life := 0.0
		if st.draw > 0 {
			life = st.residual / st.draw
		}
		need := level*st.capacity - st.residual
		if need < 0 {
			need = 0
		}
		in.Requests = append(in.Requests, core.Request{
			Pos:      nw.Sensors[id].Pos,
			Duration: need / nw.ChargeRate,
			Lifetime: life,
		})
	}
	return in
}
