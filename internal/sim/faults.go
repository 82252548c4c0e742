package sim

import (
	"context"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
)

// FaultStats aggregates fault-injection and recovery activity over one
// simulation run. Result.Faults is nil unless the run had a fault plan.
type FaultStats struct {
	// MCVFailures counts breakdowns of any kind; Transient of them were
	// repaired in the field and Permanent removed the MCV from the fleet
	// for the rest of the run.
	MCVFailures int `json:"mcv_failures"`
	Transient   int `json:"transient"`
	Permanent   int `json:"permanent"`
	// Retries counts field-repair attempts (including failed ones) and
	// RepairSeconds the total time spent repairing.
	Retries       int     `json:"retries"`
	RepairSeconds float64 `json:"repair_seconds"`
	// Redistributed counts stops moved from broken MCVs into surviving
	// tours by the online recovery engine.
	Redistributed int `json:"redistributed"`
	// Unserved counts requests dropped in-round because no surviving MCV
	// could take them (full-fleet loss, or recovery disabled); they stay
	// pending for later rounds.
	Unserved int `json:"unserved"`
	// SensorFailures counts permanent sensor hardware deaths (churn) and
	// Bursts the charge-request burst events.
	SensorFailures int `json:"sensor_failures"`
	Bursts         int `json:"bursts"`
	// SurvivingMCVs is the fleet size at the end of the run.
	SurvivingMCVs int `json:"surviving_mcvs"`
	// PlannedLongestSum and ActualLongestSum compare each round's
	// fault-free planned schedule (the round's twin) against the realized
	// one; their ratio is the run's delay inflation.
	PlannedLongestSum float64 `json:"planned_longest_sum"`
	ActualLongestSum  float64 `json:"actual_longest_sum"`
}

// DelayInflation returns the ratio of realized to planned longest tour
// duration across the run — 1 means faults added no delay. Safe on nil
// (returns 1).
func (f *FaultStats) DelayInflation() float64 {
	if f == nil || f.PlannedLongestSum <= 0 {
		return 1
	}
	return f.ActualLongestSum / f.PlannedLongestSum
}

// faultWorld carries one run's precomputed world-level fault events
// (sensor churn, request bursts) and the accounting sinks. A nil
// *faultWorld is valid and inert, so the simulator's hot loops stay
// branch-light when no faults are configured.
type faultWorld struct {
	inj    *fault.Injector
	stats  *FaultStats
	trace  *tracer
	tr     *obs.Tracer
	deaths []fault.SensorDeath
	bursts []fault.Burst
	di, bi int // applied prefixes
}

func newFaultWorld(inj *fault.Injector, horizon float64, n int, stats *FaultStats, trace *tracer, tr *obs.Tracer) *faultWorld {
	if inj == nil {
		return nil
	}
	return &faultWorld{
		inj:    inj,
		stats:  stats,
		trace:  trace,
		tr:     tr,
		deaths: inj.SensorDeaths(horizon, n),
		bursts: inj.Bursts(horizon, n),
	}
}

// advance applies every sensor hardware death and request burst up to
// time now. A hardware-dead sensor is frozen (no draw, no further dead
// time, never requests: its target drops below any residual); a burst
// drains each victim immediately, possibly killing its battery.
func (w *faultWorld) advance(now float64, states []sensorState, targets []float64) {
	if w == nil {
		return
	}
	for w.di < len(w.deaths) && w.deaths[w.di].At <= now {
		d := w.deaths[w.di]
		w.di++
		if targets[d.Sensor] < 0 {
			continue
		}
		s := &states[d.Sensor]
		s.advanceTo(d.At)
		s.draw, s.deadAt = 0, -1
		targets[d.Sensor] = -1
		w.stats.SensorFailures++
		w.tr.Add("fault.sensor_failures", 1)
		w.trace.emit(TraceEvent{Kind: "sensor-fail", T: d.At, Sensor: d.Sensor})
	}
	for w.bi < len(w.bursts) && w.bursts[w.bi].At <= now {
		b := w.bursts[w.bi]
		w.bi++
		w.stats.Bursts++
		w.tr.Add("fault.bursts", 1)
		w.trace.emit(TraceEvent{Kind: "burst", T: b.At, Batch: len(b.Victims)})
		for _, id := range b.Victims {
			if id >= len(states) || targets[id] < 0 {
				continue
			}
			s := &states[id]
			s.advanceTo(b.At)
			if s.deadAt >= 0 {
				continue
			}
			s.residual -= b.Drain * s.capacity
			if s.residual <= 0 {
				s.residual = 0
				s.deadAt = s.last
				s.died = true
				w.trace.emit(TraceEvent{Kind: "dead", T: s.last, Sensor: id})
			}
		}
	}
}

// next returns the earliest unapplied world event time, or +Inf. The
// simulator's clock jumps must not leap over it: a burst can create
// pending requests out of thin air.
func (w *faultWorld) next() float64 {
	if w == nil {
		return math.Inf(1)
	}
	next := math.Inf(1)
	if w.di < len(w.deaths) {
		next = w.deaths[w.di].At
	}
	if w.bi < len(w.bursts) && w.bursts[w.bi].At < next {
		next = w.bursts[w.bi].At
	}
	return next
}

// roundFaults is the outcome of one round's fault resolution.
type roundFaults struct {
	// unserved lists request indices (into the round's instance) dropped
	// because no surviving MCV could take them.
	unserved []int
	// newDead counts MCVs permanently lost this round.
	newDead int
}

// applyRoundFaults realizes one synchronized round under the fault model:
// it draws per-tour breakdowns, truncates permanently failed tours and
// redistributes their unserved stops among the survivors (the online
// recovery engine), schedules transient repair pauses, and re-executes
// the schedule through core.Execute under the round's travel and
// charging delay noise, which enforces the no-simultaneous-charging
// constraint. planned is mutated; the returned schedule carries the
// realized times.
func applyRoundFaults(ctx context.Context, w *faultWorld, round int, start float64, in *core.Instance, planned *core.Schedule) (*core.Schedule, roundFaults) {
	var rf roundFaults
	w.stats.PlannedLongestSum += planned.Longest

	pauses := make([]core.Pause, len(planned.Tours))
	dead := make(map[int]bool)
	var orphans []core.Stop
	earliestFail := math.Inf(1)
	for k := range planned.Tours {
		if len(planned.Tours[k].Stops) == 0 {
			continue
		}
		f, ok := w.inj.TourFailure(round, k, planned.Tours[k].Delay)
		if !ok {
			continue
		}
		w.stats.MCVFailures++
		w.stats.Retries += f.Retries
		w.stats.RepairSeconds += f.Delay
		w.tr.Add("fault.mcv_failures", 1)
		w.trace.emit(TraceEvent{Kind: "mcv-fail", T: start + f.At, Charger: k})
		if f.Transient {
			w.stats.Transient++
			pauses[k] = core.Pause{At: f.At, Delay: f.Delay}
			continue
		}
		w.stats.Permanent++
		w.tr.Add("fault.mcv_lost", 1)
		dead[k] = true
		rf.newDead++
		if f.At < earliestFail {
			earliestFail = f.At
		}
		orphans = append(orphans, fault.Truncate(&planned.Tours[k], f.At)...)
	}

	if len(orphans) > 0 {
		survivors := 0
		for k := range planned.Tours {
			if !dead[k] {
				survivors++
			}
		}
		if survivors > 0 && !w.inj.RecoveryDisabled() {
			// Stops that physically completed before the first breakdown
			// must not move; later orphans may only land after them.
			frozen := make([]int, len(planned.Tours))
			for k := range planned.Tours {
				if dead[k] {
					continue
				}
				for _, st := range planned.Tours[k].Stops {
					if st.Finish() > earliestFail {
						break
					}
					frozen[k]++
				}
			}
			n := fault.Redistribute(in, planned, dead, frozen, orphans)
			w.stats.Redistributed += n
			w.tr.Add("fault.redistributed", int64(n))
			w.trace.emit(TraceEvent{Kind: "redistribute", T: start + earliestFail, Stops: n})
		} else {
			for _, st := range orphans {
				rf.unserved = append(rf.unserved, st.Covers...)
			}
			sort.Ints(rf.unserved)
			w.stats.Unserved += len(rf.unserved)
			w.tr.Add("fault.unserved", int64(len(rf.unserved)))
		}
	}

	exec := (&core.Realization{
		TravelFactor: func(from, to int) float64 { return w.inj.TravelFactor(round, from, to) },
		ChargeFactor: func(node int) float64 { return w.inj.ChargeFactor(round, node) },
		Pauses:       pauses,
	}).Execute(ctx, in, planned)
	w.stats.ActualLongestSum += exec.Longest
	return exec, rf
}

// dropUncovered filters "uncovered" violations out of a degraded round's
// verification: requests the fault model left unserved are uncovered by
// design, not by a scheduling bug. Only called when unserved is non-empty.
func dropUncovered(vs []core.Violation) []core.Violation {
	kept := vs[:0]
	for _, v := range vs {
		if v.Kind != "uncovered" {
			kept = append(kept, v)
		}
	}
	return kept
}
