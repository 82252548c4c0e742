package fault

import "repro/internal/core"

// Truncate cuts the tour at the breakdown time `at` (seconds from
// dispatch): stops whose charging finished by `at` stay served, and every
// later stop — including one interrupted mid-charge, whose sensors must
// be recharged from scratch — is removed and returned in visit order for
// redistribution. Stop times within a tour are non-decreasing, so the cut
// is a prefix split.
func Truncate(t *core.Tour, at float64) []core.Stop {
	kept := 0
	for _, st := range t.Stops {
		if st.Finish() > at {
			break
		}
		kept++
	}
	if kept == len(t.Stops) {
		return nil
	}
	orphans := append([]core.Stop(nil), t.Stops[kept:]...)
	t.Stops = t.Stops[:kept]
	return orphans
}

// Redistribute moves a broken-down MCV's orphaned stops into the
// surviving tours using the two insertion cases of the paper's
// Algorithm 1 (steps 11-23), preserving the no-simultaneous-charging
// invariant the original insertion rule establishes:
//
//   - Case (i): if a surviving stop's coverage disk conflicts with the
//     orphan's (a shared sensor within the charging radius — the same
//     test as Eq. (8)'s H-neighborhood), the orphan is inserted directly
//     after the conflicting stop with the latest charging finish time, so
//     the two charging intervals are serialized by the same charger.
//   - Case (ii): with no conflicting placed stop, the orphan is appended
//     to the surviving tour with the smallest delay, mirroring the
//     shortest-tour fallback.
//
// dead marks tour indices that may not receive stops; frozen[k] is the
// number of leading stops of tour k that already physically completed and
// must not move (insertion positions are clamped past them; pass nil to
// allow any position). Tour times are refreshed after every insertion so
// later orphans see up-to-date finish times. Returns the number of stops
// inserted: len(orphans), or 0 when no surviving tour exists.
//
// Residual cross-tour conflicts (an orphan conflicting with a stop in a
// different surviving tour) are left to the conflict-aware executor,
// exactly as in the plan-then-Execute division of labor of Appro itself.
func Redistribute(in *core.Instance, s *core.Schedule, dead map[int]bool, frozen []int, orphans []core.Stop) int {
	if len(orphans) == 0 {
		return 0
	}
	survivors := 0
	for k := range s.Tours {
		if !dead[k] {
			survivors++
		}
	}
	if survivors == 0 {
		return 0
	}

	cov := core.NewCoverage(in.Positions(), in.Gamma)
	frozenAt := func(k int) int {
		if frozen == nil {
			return 0
		}
		return frozen[k]
	}

	for _, orphan := range orphans {
		// Case (i): latest-finishing conflicting stop among survivors.
		bestTour, bestPos, bestFinish := -1, 0, 0.0
		for k := range s.Tours {
			if dead[k] {
				continue
			}
			for p, st := range s.Tours[k].Stops {
				if cov.Conflict(st.Node, orphan.Node) && (bestTour < 0 || st.Finish() > bestFinish) {
					bestTour, bestPos, bestFinish = k, p+1, st.Finish()
				}
			}
		}
		if bestTour < 0 {
			// Case (ii): append to the shortest surviving tour.
			for k := range s.Tours {
				if dead[k] {
					continue
				}
				if bestTour < 0 || s.Tours[k].Delay < s.Tours[bestTour].Delay {
					bestTour = k
				}
			}
			bestPos = len(s.Tours[bestTour].Stops)
		}
		if min := frozenAt(bestTour); bestPos < min {
			bestPos = min
		}
		tour := &s.Tours[bestTour]
		tour.Stops = append(tour.Stops, core.Stop{})
		copy(tour.Stops[bestPos+1:], tour.Stops[bestPos:])
		tour.Stops[bestPos] = orphan
		core.FinalizeTour(in, tour)
	}
	core.Finalize(in, s)
	return len(orphans)
}
