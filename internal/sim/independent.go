package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/wrsn"
)

// DispatchMode selects how charging rounds are triggered.
type DispatchMode int

const (
	// DispatchSynchronized is the paper's round-based protocol: all K
	// chargers leave the depot together with a jointly planned set of K
	// tours, and the next round starts when the last charger returns.
	DispatchSynchronized DispatchMode = iota
	// DispatchIndependent lets each charger redispatch on its own: the
	// moment a charger is back at the depot (and its own batching window
	// has elapsed), it claims every pending request and runs a
	// single-vehicle tour over them, while the other chargers are still
	// out. Multi-node charging stays safe: a newly planned tour is
	// time-shifted around the already-committed charging intervals of
	// in-flight tours so no sensor is ever inside two active ranges.
	DispatchIndependent
)

// String implements fmt.Stringer.
func (m DispatchMode) String() string {
	switch m {
	case DispatchSynchronized:
		return "synchronized"
	case DispatchIndependent:
		return "independent"
	default:
		return "unknown"
	}
}

// interval is a committed absolute-time charging interval of some stop.
type interval struct {
	node       int // the sensor the charger parks at
	start, end float64
	tour       int // dispatch index, for the audit: same tour never conflicts with itself
}

// runIndependent is the DispatchIndependent main loop. It mirrors Run's
// bookkeeping — including the partial-result-on-cancellation contract —
// but drives each charger separately. Under a fault plan each dispatch
// draws its own breakdown and delay noise: a transient breakdown pauses
// the charger in place for the repair time, while a permanent one kills
// it mid-tour — its remaining requests simply stay pending and are picked
// up by the next free charger (independent dispatch's natural form of
// redistribution). Trace lines are emitted as each dispatch commits: its
// mcv-fail draw, a dead and a charge line per refill, then the dispatch.
func runIndependent(ctx context.Context, nw *wrsn.Network, k int, planner core.Planner, cfg Config,
	states []sensorState, targets []float64, inj *fault.Injector, world *faultWorld, fstats *FaultStats, trace *tracer) (*Result, error) {
	res := &Result{Planner: planner.Name(), Faults: fstats}
	tr := obs.FromContext(ctx)
	var longestAcc stats.Accumulator
	var runErr error
	cancelledAt := 0.0

	free := make([]float64, k)         // when each charger is next at the depot
	lastDispatch := make([]float64, k) // when each charger last left
	alive := make([]bool, k)           // false once permanently broken down
	aliveCount := k
	for i := range lastDispatch {
		lastDispatch[i] = math.Inf(-1)
		alive[i] = true
	}
	var committed []interval
	// Under Verify, every interval ever committed is retained for a
	// global pairwise no-overlap audit at the end.
	var audit []interval
	cov := core.NewCoverage(networkPositions(nw), nw.Gamma)

	for {
		if err := ctx.Err(); err != nil {
			runErr = fmt.Errorf("sim: cancelled at t=%.0f: %w", cancelledAt, err)
			break
		}
		if cfg.MaxRounds > 0 && len(res.Rounds) >= cfg.MaxRounds {
			break
		}
		if aliveCount == 0 {
			// Every MCV is permanently lost; dead time accrues to the
			// configured horizon when the books close below.
			runErr = fmt.Errorf("sim: t=%.0f: %w", cancelledAt, fault.ErrFleetLost)
			break
		}
		// The next charger to act, by effective dispatch time (return
		// time or its own batching-window gate, whichever is later).
		// Selecting by effective time keeps dispatches in chronological
		// order, which is what lets a new tour treat all previously
		// committed intervals as final. Dead chargers never act.
		effective := func(j int) float64 {
			if !alive[j] {
				return math.Inf(1)
			}
			e := free[j]
			if gate := lastDispatch[j] + cfg.BatchWindow; gate > e {
				e = gate
			}
			return e
		}
		ch := 0
		for j := 1; j < k; j++ {
			if effective(j) < effective(ch) {
				ch = j
			}
		}
		now := effective(ch)
		cancelledAt = now
		if now >= cfg.Duration {
			break
		}
		world.advance(now, states, targets)
		pending := pendingRequests(states, targets, now)
		if len(pending) == 0 {
			next := nextRequestTime(states, targets, now)
			if wn := world.next(); wn+1e-6 < next {
				next = wn + 1e-6
			}
			if math.IsInf(next, 1) || next >= cfg.Duration {
				break
			}
			if next < now {
				next = now
			}
			free[ch] = next
			continue
		}
		// Claim a spatially coherent share of the backlog rather than
		// everything: a charger that swallowed the whole backlog would
		// tour for days while its peers idle, and spatially interleaved
		// claims would serialize the chargers through the
		// no-simultaneous-charging rule. Each charger statically owns
		// the angular sector [2*pi*ch/k, 2*pi*(ch+1)/k) around the
		// depot, so concurrent tours only meet near the depot; when a
		// charger's own sector is empty it helps out with the whole
		// backlog (conflict waits then handle the rare encounters).
		if aliveCount > 1 {
			// Sectors are carved among the surviving chargers only, so a
			// breakdown's territory is inherited instead of orphaned.
			aliveIdx := 0
			for j := 0; j < ch; j++ {
				if alive[j] {
					aliveIdx++
				}
			}
			var mine []int
			for _, id := range pending {
				if sectorOf(nw.Depot, nw.Sensors[id].Pos, aliveCount) == aliveIdx {
					mine = append(mine, id)
				}
			}
			if len(mine) > 0 {
				pending = mine
			}
		}

		// Plan a single-vehicle tour over the claimed set.
		inst := buildInstance(nw, states, pending, 1, cfg.ChargeLevel)
		sched, err := planner.Plan(ctx, inst)
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				runErr = fmt.Errorf("sim: cancelled at t=%.0f: %w", now, cerr)
				break
			}
			return nil, fmt.Errorf("sim: planner %s at t=%.0f: %w", planner.Name(), now, err)
		}
		if cfg.Verify {
			sp := tr.Start(obs.StageVerify)
			vs := core.VerifyScheme(inst, sched)
			res.Violations += len(vs)
			if res.FirstViolation == "" && len(vs) > 0 {
				res.FirstViolation = vs[0].String()
			}
			sp.End()
		}
		tour := flattenTours(sched)
		if len(tour) == 0 {
			return nil, fmt.Errorf("sim: planner %s returned no stops for %d requests", planner.Name(), len(pending))
		}

		// Draw this dispatch's breakdown, if any, against the planned
		// tour delay. Rounds are globally ordered, so (round, charger)
		// uniquely keys the draw.
		round := len(res.Rounds)
		var brk fault.Failure
		broken := false
		if inj != nil {
			brk, broken = inj.TourFailure(round, ch, sched.Longest)
			if broken {
				fstats.MCVFailures++
				fstats.Retries += brk.Retries
				fstats.RepairSeconds += brk.Delay
				tr.Add("fault.mcv_failures", 1)
				trace.emit(TraceEvent{Kind: "mcv-fail", T: now + brk.At, Charger: ch})
				if brk.Transient {
					fstats.Transient++
				} else {
					fstats.Permanent++
					tr.Add("fault.mcv_lost", 1)
				}
			}
			fstats.PlannedLongestSum += sched.Longest
		}

		// Commit the tour against in-flight intervals: each stop starts
		// after physical arrival and after every conflicting committed
		// interval ends. In-flight tours are never delayed by a later
		// dispatch, so one forward pass suffices. Travel and charging
		// stretch by the injector's noise factors; a transient breakdown
		// pauses the charger once, and a permanent one ends the tour at
		// the first stop it can no longer finish.
		clock := now
		pos := nw.Depot
		prevID := -1
		wait := 0.0
		servedCount := 0
		stopsDone := 0
		paused := false
		lost := false
		for _, st := range tour {
			sensorID := pending[st.Node]
			stopPos := nw.Sensors[sensorID].Pos
			clock += geom.Dist(pos, stopPos) / nw.Speed * inj.TravelFactor(round, prevID, sensorID)
			if broken && brk.Transient && !paused && clock >= now+brk.At {
				clock += brk.Delay
				paused = true
			}
			start := clock
			for _, iv := range committed {
				if iv.end > start && cov.Conflict(iv.node, sensorID) {
					start = iv.end
				}
			}
			dur := st.Duration * inj.ChargeFactor(round, sensorID)
			if broken && brk.Transient && !paused && start < now+brk.At && now+brk.At < start+dur {
				dur += brk.Delay
				paused = true
			}
			if broken && !brk.Transient && start+dur > now+brk.At {
				// The charger dies before finishing this stop; its covered
				// sensors stay pending and the survivors inherit them.
				lost = true
				break
			}
			wait += start - clock
			clock = start + dur
			pos = stopPos
			prevID = sensorID
			iv := interval{node: sensorID, start: start, end: clock, tour: round}
			committed = append(committed, iv)
			if cfg.Verify {
				audit = append(audit, iv)
			}
			// Refill the covered sensors at the stop's finish, reporting a
			// sensor that died while waiting first, as Run does.
			for _, ri := range st.Covers {
				id := pending[ri]
				states[id].advanceTo(clock)
				if deadAt := states[id].deadAt; deadAt >= 0 {
					trace.emit(TraceEvent{Kind: "dead", T: deadAt, Sensor: id})
				}
				delivered := states[id].chargeAt(clock, cfg.ChargeLevel)
				res.EnergyDelivered += delivered
				res.Charges++
				servedCount++
				trace.emit(TraceEvent{Kind: "charge", T: clock, Sensor: id, Energy: delivered})
			}
			stopsDone++
		}
		if lost {
			alive[ch] = false
			aliveCount--
			if fstats != nil {
				fstats.SurvivingMCVs = aliveCount
			}
		} else {
			clock += geom.Dist(pos, nw.Depot) / nw.Speed * inj.TravelFactor(round, prevID, -1)
			if broken && brk.Transient && !paused {
				clock += brk.Delay
			}
		}
		delay := clock - now
		if fstats != nil {
			fstats.ActualLongestSum += delay
		}

		// Prune committed intervals no surviving charger can conflict
		// with anymore.
		if len(committed) > 4*len(tour)+64 {
			minFree := math.Inf(1)
			for j, f := range free {
				if alive[j] && f < minFree {
					minFree = f
				}
			}
			if !math.IsInf(minFree, 1) {
				kept := committed[:0]
				for _, iv := range committed {
					if iv.end > minFree {
						kept = append(kept, iv)
					}
				}
				committed = kept
			}
		}

		res.Rounds = append(res.Rounds, Round{
			Start:   now,
			Batch:   servedCount,
			Stops:   stopsDone,
			Longest: delay,
			Wait:    wait,
		})
		trace.emit(TraceEvent{
			Kind: "dispatch", T: now, Charger: ch,
			Batch: servedCount, Stops: stopsDone, Delay: delay,
		})
		tr.Add("sim.rounds", 1)
		tr.Add("sim.charges", int64(servedCount))
		longestAcc.Add(delay)
		if delay > res.MaxLongest {
			res.MaxLongest = delay
		}
		lastDispatch[ch] = now
		free[ch] = clock
	}

	// Global audit: no two charging intervals from different dispatches
	// may overlap in time while sharing a covered sensor.
	if cfg.Verify {
		sort.Slice(audit, func(i, j int) bool { return audit[i].start < audit[j].start })
		for i := range audit {
			for j := i + 1; j < len(audit); j++ {
				if audit[j].start >= audit[i].end-1e-9 {
					break // sorted by start: no later interval overlaps i
				}
				if audit[i].tour == audit[j].tour {
					continue
				}
				if cov.Conflict(audit[i].node, audit[j].node) {
					res.Violations++
					if res.FirstViolation == "" {
						res.FirstViolation = fmt.Sprintf(
							"simultaneous-charge: intervals at nodes %d and %d overlap at t=%.0f",
							audit[i].node, audit[j].node, audit[j].start)
					}
				}
			}
		}
	}

	// Close the books. A cancelled run still closes at the committed
	// horizon — charges were applied at their absolute future times when
	// each tour was committed, so the books cannot close earlier than the
	// last in-flight tour's return.
	res.End = cfg.Duration
	if runErr != nil && !errors.Is(runErr, fault.ErrFleetLost) {
		// A lost fleet still closes at the horizon — the outage's dead
		// time is the result — while a cancellation closes early.
		res.End = cancelledAt
	}
	for j, f := range free {
		if alive[j] && f > res.End {
			res.End = f
		}
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

// flattenTours concatenates a (K=1) schedule's stops in time order.
func flattenTours(s *core.Schedule) []core.Stop {
	var out []core.Stop
	for _, tour := range s.Tours {
		out = append(out, tour.Stops...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Arrive < out[j].Arrive })
	return out
}

func networkPositions(nw *wrsn.Network) []geom.Point {
	pts := make([]geom.Point, len(nw.Sensors))
	for i := range nw.Sensors {
		pts[i] = nw.Sensors[i].Pos
	}
	return pts
}

// sectorOf returns which of k equal angular sectors around the depot the
// point falls in.
func sectorOf(depot, p geom.Point, k int) int {
	ang := math.Atan2(p.Y-depot.Y, p.X-depot.X) // [-pi, pi]
	frac := (ang + math.Pi) / (2 * math.Pi)     // [0, 1]
	s := int(frac * float64(k))
	if s >= k {
		s = k - 1
	}
	if s < 0 {
		s = 0
	}
	return s
}
