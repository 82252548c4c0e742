package core

import (
	"fmt"
	"slices"

	"repro/internal/geom"
)

// Violation describes one way a schedule breaks the problem's constraints.
type Violation struct {
	// Kind is a short machine-readable category.
	Kind string
	// Detail is a human-readable description.
	Detail string
}

func (v Violation) String() string { return v.Kind + ": " + v.Detail }

// VerifyScheme verifies s under its own charging scheme. A one-to-one
// schedule (every stop covers exactly the sensor it parks at) is checked
// under point charging, gamma = 0, with the overlap constraint dropped:
// directional one-to-one charging cannot interfere, even between
// coincident sensors. A multi-node schedule is checked by Verify under
// the instance's gamma, overlap constraint included.
func VerifyScheme(in *Instance, s *Schedule) []Violation {
	if !isOneToOne(s) {
		return Verify(in, s)
	}
	point := *in
	point.Gamma = 0
	vs := Verify(&point, s)
	kept := vs[:0]
	for _, v := range vs {
		if v.Kind != "simultaneous-charge" {
			kept = append(kept, v)
		}
	}
	return kept
}

// isOneToOne reports whether every stop covers exactly the sensor it parks
// at.
func isOneToOne(s *Schedule) bool {
	for _, tour := range s.Tours {
		for _, stop := range tour.Stops {
			if len(stop.Covers) != 1 || stop.Covers[0] != stop.Node {
				return false
			}
		}
	}
	return true
}

// Verify checks a schedule against the problem definition independently of
// how it was produced:
//
//  1. coverage — every request is attributed to exactly one stop, and lies
//     within gamma of that stop's sojourn location;
//  2. node-disjointness — no sojourn location is used by two tours;
//  3. time consistency — every stop time and tour delay is finite (a plan
//     whose distances or durations overflow float64 has no schedule);
//     within each tour, stop times respect travel at the instance speed
//     and charging durations, and each stop's duration is at least the
//     longest remaining charge among the sensors it covers;
//  4. no simultaneous overlap — for any two stops in different tours whose
//     coverage disks share a sensor, the charging intervals are disjoint.
//
// It returns all violations found (empty means the schedule is feasible).
func Verify(in *Instance, s *Schedule) []Violation {
	var out []Violation
	if len(s.Tours) != in.K {
		out = append(out, Violation{
			Kind:   "tour-count",
			Detail: fmt.Sprintf("schedule has %d tours, instance has K=%d", len(s.Tours), in.K),
		})
	}

	// 1. Coverage partition and radius. A request's attribution is the
	// FIRST stop that lists it: each extra covering stop is reported as
	// its own double-cover violation (naming both the attributed stop and
	// the extra one), and the radius check runs against the attributing
	// stop only — an extra stop's distance is irrelevant to the partition
	// the schedule actually charges under, and checking it would blame
	// the wrong stop.
	attributed := make([]int, len(in.Requests))
	for i := range attributed {
		attributed[i] = -1
	}
	for k, tour := range s.Tours {
		for si, stop := range tour.Stops {
			if stop.Node < 0 || stop.Node >= len(in.Requests) {
				out = append(out, Violation{
					Kind:   "bad-node",
					Detail: fmt.Sprintf("tour %d stop %d references node %d", k, si, stop.Node),
				})
				continue
			}
			pos := in.Requests[stop.Node].Pos
			for _, u := range stop.Covers {
				if u < 0 || u >= len(in.Requests) {
					out = append(out, Violation{
						Kind:   "bad-cover",
						Detail: fmt.Sprintf("tour %d stop %d covers invalid request %d", k, si, u),
					})
					continue
				}
				if attributed[u] >= 0 {
					out = append(out, Violation{
						Kind: "double-cover",
						Detail: fmt.Sprintf("request %d is attributed to stop %d but also covered by tour %d stop %d (node %d)",
							u, attributed[u], k, si, stop.Node),
					})
					continue
				}
				attributed[u] = stop.Node
				if !geom.Within(pos, in.Requests[u].Pos, in.Gamma) {
					out = append(out, Violation{
						Kind: "out-of-range",
						Detail: fmt.Sprintf("request %d at %s is %.3f m from stop %d (gamma %.3f)",
							u, in.Requests[u].Pos, geom.Dist(pos, in.Requests[u].Pos), stop.Node, in.Gamma),
					})
				}
			}
		}
	}
	for u, a := range attributed {
		if a < 0 {
			out = append(out, Violation{
				Kind:   "uncovered",
				Detail: fmt.Sprintf("request %d is not charged by any stop", u),
			})
		}
	}

	// 2. Node-disjoint tours. Out-of-range nodes are already reported as
	// bad-node, so they own no sojourn location.
	owner := make([]int, len(in.Requests))
	for i := range owner {
		owner[i] = -1
	}
	for k, tour := range s.Tours {
		for _, stop := range tour.Stops {
			if stop.Node < 0 || stop.Node >= len(owner) {
				continue
			}
			if prev := owner[stop.Node]; prev >= 0 && prev != k {
				out = append(out, Violation{
					Kind:   "shared-sojourn",
					Detail: fmt.Sprintf("sojourn location %d appears in tours %d and %d", stop.Node, prev, k),
				})
			}
			owner[stop.Node] = k
		}
	}

	// 3. Time consistency per tour.
	const eps = 1e-6
	for k, tour := range s.Tours {
		cur := in.Depot
		now := 0.0
		for si, stop := range tour.Stops {
			if stop.Node < 0 || stop.Node >= len(in.Requests) {
				continue
			}
			if !geom.Finite(stop.Arrive) || !geom.Finite(stop.Duration) {
				out = append(out, Violation{
					Kind:   "non-finite-time",
					Detail: fmt.Sprintf("tour %d stop %d arrives at %v s and charges for %v s", k, si, stop.Arrive, stop.Duration),
				})
			}
			pos := in.Requests[stop.Node].Pos
			now += in.Travel(cur, pos)
			if stop.Arrive < now-eps {
				out = append(out, Violation{
					Kind: "time-travel",
					Detail: fmt.Sprintf("tour %d stop %d arrives at %.3f s, earliest physical arrival %.3f s",
						k, si, stop.Arrive, now),
				})
			}
			now = stop.Arrive + stop.Duration
			cur = pos
			// Duration must cover the longest charge among attributed
			// sensors.
			for _, u := range stop.Covers {
				if u < 0 || u >= len(in.Requests) {
					continue
				}
				if in.Requests[u].Duration > stop.Duration+eps {
					out = append(out, Violation{
						Kind: "undercharge",
						Detail: fmt.Sprintf("tour %d stop %d duration %.3f s < request %d charge %.3f s",
							k, si, stop.Duration, u, in.Requests[u].Duration),
					})
				}
			}
		}
		if !geom.Finite(tour.Delay) {
			out = append(out, Violation{
				Kind:   "non-finite-time",
				Detail: fmt.Sprintf("tour %d reports delay %v s", k, tour.Delay),
			})
		}
		if len(tour.Stops) > 0 {
			now += in.Travel(cur, in.Depot)
			if tour.Delay < now-eps {
				out = append(out, Violation{
					Kind: "delay-understated",
					Detail: fmt.Sprintf("tour %d reports delay %.3f s, physical minimum %.3f s",
						k, tour.Delay, now),
				})
			}
		}
	}

	// 4. No simultaneous charging of a shared sensor by two chargers.
	out = append(out, overlapViolations(in, s)...)
	return out
}

// overlapViolations returns a violation for every pair of stops in
// different tours whose coverage disks share at least one sensor and whose
// charging intervals overlap in time, ordered by the first stop's then the
// second stop's position in the schedule.
//
// Two stops that share a sensor lie within 2*gamma of each other, so a
// grid over the stop positions narrows each stop's partners to its
// neighbors at geom.PairRadius(2*gamma); the tour, interval and cover
// tests alone decide. The tour and interval tests come first, and a
// feasible plan leaves few pairs past them, so only the partners that
// pass are sorted, and a stop's cover set (the requests within gamma of
// it, over a request grid built on first use) is built only when one of
// its pairs reaches the cover test.
func overlapViolations(in *Instance, s *Schedule) []Violation {
	type flatStop struct {
		tour int
		stop *Stop
	}
	n := 0
	for _, tour := range s.Tours {
		n += len(tour.Stops)
	}
	flat := make([]flatStop, 0, n)
	pos := make([]geom.Point, 0, n)
	for k, tour := range s.Tours {
		for si := range tour.Stops {
			stop := &tour.Stops[si]
			if stop.Node < 0 || stop.Node >= len(in.Requests) {
				continue
			}
			flat = append(flat, flatStop{tour: k, stop: stop})
			pos = append(pos, in.Requests[stop.Node].Pos)
		}
	}
	var requests *geom.Grid
	var covers [][]int
	cover := func(i int) []int {
		if covers == nil {
			requests = geom.NewGrid(in.Positions(), in.Gamma)
			covers = make([][]int, len(flat))
		}
		if covers[i] == nil {
			covers[i] = requests.Neighbors(pos[i], in.Gamma, nil)
			slices.Sort(covers[i])
		}
		return covers[i]
	}
	reach := geom.PairRadius(2 * in.Gamma)
	stops := geom.NewGrid(pos, reach)
	const eps = 1e-9
	var out []Violation
	var near []int
	for i, a := range flat {
		near = stops.Neighbors(pos[i], reach, near)
		contested := near[:0]
		for _, j := range near {
			b := flat[j]
			if j <= i || a.tour == b.tour {
				continue // each pair once; a single charger cannot overlap itself
			}
			if a.stop.Arrive >= b.stop.Finish()-eps || b.stop.Arrive >= a.stop.Finish()-eps {
				continue // disjoint time intervals
			}
			contested = append(contested, j)
		}
		slices.Sort(contested)
		for _, j := range contested {
			b := flat[j]
			if !intersectsSorted(cover(i), cover(j)) {
				continue
			}
			out = append(out, Violation{
				Kind: "simultaneous-charge",
				Detail: fmt.Sprintf("tours %d and %d charge a shared sensor simultaneously: stops at nodes %d [%.2f,%.2f] and %d [%.2f,%.2f]",
					a.tour, b.tour, a.stop.Node, a.stop.Arrive, a.stop.Finish(), b.stop.Node, b.stop.Arrive, b.stop.Finish()),
			})
		}
	}
	return out
}

func intersectsSorted(a, b []int) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return true
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return false
}
