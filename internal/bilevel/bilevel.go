// Package bilevel implements a bi-level metaheuristic contender for the
// longest-charge-delay problem, in the spirit of the bi-level charging
// schemes surveyed in PAPERS.md: an outer level perturbs the stop
// subset, an inner level optimizes the tours over it.
//
//   - Outer level: OuterRounds candidate stop sets, each a maximal
//     independent set of the charging graph G_c. Round 0 is the
//     deterministic max-degree MIS (Appro's hub heuristic); every later
//     round greedily scans vertices by degree jittered with noise seeded
//     purely by (Options.Seed, round) — the seeded stop-subset
//     perturbation over the MIS candidate pool, keeping max-degree's
//     hub bias while exploring nearby candidate sets.
//   - Inner level: K min-max closed tours over each candidate set via
//     ktour.MinMax, the same single grand-tour descent Appro runs.
//
// Each candidate schedule is finalized and executed (conflict-free by
// core.Execute); the winner is the one with the smallest executed
// longest delay, ties broken by the lowest round index. Because every
// MIS is maximal, each candidate set covers all of V_s, and because its
// members are pairwise more than gamma apart, each stop's coverage
// attribution is a partition — the schedules are verifier-clean by
// construction.
//
// Determinism: rounds are seeded by index and merged by index
// (par.Map, over GOMAXPROCS workers), and the winner tiebreak is
// index-stable, so equal (instance, Options.Seed) inputs produce
// byte-identical schedules at any GOMAXPROCS — the same contract as the
// rest of the engine.
//
// core.Options.Seed is the one planner option, and BiLevel is the only
// planner that reads it: the registry flags it Seeded, and PlanOptions
// hands the seed to the plan-cache key (plancache.Optioned), so each seed
// keys its own /v1/plan entry. The service, wrsn-plan and the golden
// tests plan it under Seed 0 unless a request sets one; the contender
// ablation runs seeds 1 and 2.
package bilevel

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/ktour"
	"repro/internal/par"
)

// OuterRounds is the number of candidate stop sets the outer level
// explores: the deterministic max-degree MIS plus OuterRounds-1 seeded
// perturbations.
const OuterRounds = 8

// Planner is the bi-level metaheuristic as a core.Planner.
type Planner struct {
	// Opts tunes the search: Seed drives the outer perturbation.
	Opts core.Options
}

// Name implements core.Planner.
func (Planner) Name() string { return "BiLevel" }

// PlanOptions exposes the options shaping the plans for plan-cache keys
// (plancache.Optioned), so two differently-seeded BiLevel planners never
// alias to one cached entry.
func (p Planner) PlanOptions() core.Options { return p.Opts }

// Plan implements core.Planner. It honors ctx between and inside rounds
// (via ktour and the executor's caller) and returns an error wrapping
// ctx.Err() on cancellation.
func (p Planner) Plan(ctx context.Context, in *core.Instance) (*core.Schedule, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("bilevel: %w", err)
	}
	if len(in.Requests) == 0 {
		s := &core.Schedule{Tours: make([]core.Tour, in.K)}
		core.Finalize(in, s)
		return s, nil
	}
	pts := in.Positions()
	gc := graph.UnitDisk(pts, in.Gamma)

	// Outer level: one candidate schedule per round, fanned across
	// GOMAXPROCS workers but indexed by round, so the scan below is
	// deterministic.
	cands, err := par.Map(ctx, OuterRounds, 0, func(ctx context.Context, r int) (*core.Schedule, error) {
		return p.planRound(ctx, in, pts, gc, candidateSet(gc, p.Opts.Seed, r))
	})
	if err != nil {
		return nil, fmt.Errorf("bilevel: %w", err)
	}
	best := -1
	for r, s := range cands {
		if s == nil {
			continue
		}
		if best < 0 || s.Longest < cands[best].Longest {
			best = r
		}
	}
	if best < 0 {
		return nil, fmt.Errorf("bilevel: no round completed: %w", ctx.Err())
	}
	return cands[best], nil
}

// candidateSet returns round r's stop set: a maximal independent set of
// the charging graph, deterministic max-degree for round 0 and a seeded
// jittered-degree perturbation for every later round.
func candidateSet(gc *graph.Undirected, seed int64, r int) []int {
	if r == 0 {
		return graph.MaximalIndependentSet(gc, graph.MISMaxDegree)
	}
	rng := rand.New(rand.NewSource(mix(seed, int64(r))))
	return perturbedMIS(gc, rng)
}

// degreeJitter is the noise amplitude added to vertex degrees by the
// perturbation rounds: a few degree units, enough to reorder near-ties
// in the hub ranking without degenerating into a uniform random scan
// (which loses the few-large-stops structure that makes max-degree
// candidate sets strong).
const degreeJitter = 1.0

// perturbedMIS repeatedly selects the remaining vertex of maximum
// jittered residual degree — the same residual-degree greedy as the
// deterministic max-degree MIS, with per-vertex seeded noise — and
// returns the resulting maximal independent set, ascending. Equal rng
// states yield identical sets: selection tie-breaks by vertex index.
func perturbedMIS(gc *graph.Undirected, rng *rand.Rand) []int {
	n := gc.Len()
	deg := make([]float64, n)
	for v := 0; v < n; v++ {
		deg[v] = float64(gc.Degree(v)) + degreeJitter*rng.Float64()
	}
	removed := make([]bool, n)
	var out []int
	for remaining := n; remaining > 0; {
		best := -1
		for v := 0; v < n; v++ {
			if !removed[v] && (best < 0 || deg[v] > deg[best]) {
				best = v
			}
		}
		out = append(out, best)
		rm := []int{best}
		removed[best] = true
		for _, u := range gc.Neighbors(best) {
			if !removed[u] {
				removed[u] = true
				rm = append(rm, int(u))
			}
		}
		remaining -= len(rm)
		for _, w := range rm {
			for _, x := range gc.Neighbors(w) {
				if !removed[x] {
					deg[x]--
				}
			}
		}
	}
	sort.Ints(out)
	return out
}

// planRound builds, finalizes and executes the schedule for one
// candidate stop set si of the charging graph gc over pts.
func (p Planner) planRound(ctx context.Context, in *core.Instance, pts []geom.Point, gc *graph.Undirected, si []int) (*core.Schedule, error) {
	// Coverage attribution in ascending candidate order: each request
	// goes to the first candidate within gamma, read from the candidate's
	// closed G_c row N_c+(v). Maximality of the MIS guarantees every
	// request is within gamma of some candidate, and independence
	// guarantees each candidate at least covers itself (no earlier
	// candidate is within gamma of it), so no stop is empty.
	cov := gc.ClosedNeighborhoods(si)
	covered := make([]bool, len(pts))
	covers := make([][]int, len(si))
	service := make([]float64, len(si))
	nodes := make([]geom.Point, len(si))
	for i, v := range si {
		nodes[i] = pts[v]
		for _, u := range cov.Of(i) {
			if covered[u] {
				continue
			}
			covered[u] = true
			covers[i] = append(covers[i], int(u))
			if d := in.Requests[u].Duration; d > service[i] {
				service[i] = d
			}
		}
	}

	// Inner level: K min-max closed tours over the stop set.
	sol, err := ktour.MinMax(ctx, ktour.Input{
		Depot:   in.Depot,
		Nodes:   nodes,
		Service: service,
		Speed:   in.Speed,
		K:       in.K,
	})
	if err != nil {
		return nil, fmt.Errorf("k-minmax inner level: %w", err)
	}
	s := &core.Schedule{Tours: make([]core.Tour, in.K)}
	for k, tour := range sol.Tours {
		for _, i := range tour {
			s.Tours[k].Stops = append(s.Tours[k].Stops, core.Stop{
				Node:     si[i],
				Duration: service[i],
				Covers:   covers[i],
			})
		}
	}
	core.Finalize(in, s)
	return core.Execute(ctx, in, s), nil
}

// mix decorrelates (seed, round) into an rng seed (splitmix64 finalizer)
// so consecutive rounds draw unrelated scan orders even for small seeds.
func mix(seed, r int64) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(r) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}
