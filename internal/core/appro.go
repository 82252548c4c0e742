package core

import (
	"context"
	"fmt"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/ktour"
	"repro/internal/obs"
)

// Appro runs Algorithm 1 of the paper and returns a planned schedule for
// the K chargers. The schedule covers every request, uses node-disjoint
// closed tours through the depot, and its per-stop times follow the
// paper's finish-time bookkeeping. Use Execute to turn the plan into a
// conflict-free executed schedule (the plan itself already avoids charger
// overlap by construction of the insertion rule; Execute additionally
// enforces it against the rare residual conflicts caused by downstream
// time shifts, by making a charger wait).
//
// The algorithm runs in O(|V_s|^2) time plus the K-minMax subroutine.
//
// Appro honors ctx: it checks for cancellation between stages and
// periodically inside the insertion loop, returning an error wrapping
// ctx.Err() when the context is cancelled or its deadline passes. When
// ctx carries an obs.Tracer, the stages charging-graph, mis, kminmax and
// insertion are recorded on it.
//
// Appro treats V_s as a set: it plans on a canonically ordered copy of
// the requests (see canon.go) and maps the stop indices back, so
// permuting the input requests permutes Stop.Node/Stop.Covers labels but
// changes nothing else about the schedule.
//
// Appro ignores its Options argument, which stays for callers that pass
// one.
func Appro(ctx context.Context, in *Instance, _ Options) (*Schedule, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	canon, perm := canonicalize(in)
	s, err := approOrdered(ctx, canon)
	if err != nil {
		return nil, err
	}
	remapSchedule(s, perm)
	return s, nil
}

// approOrdered is Algorithm 1 proper, assuming the instance is already in
// canonical request order (or that the caller accepts index-order
// sensitivity). It is the sequential planning core; all returned indices
// are in the instance's own index space.
func approOrdered(ctx context.Context, in *Instance) (*Schedule, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: appro: %w", err)
	}
	n := len(in.Requests)
	sched := &Schedule{Tours: make([]Tour, in.K)}
	if n == 0 {
		return sched, nil
	}
	tr := obs.FromContext(ctx)
	tr.Add("appro.plans", 1)
	tr.Add("appro.requests", int64(n))
	pts := in.Positions()
	c, err := buildCandidates(ctx, in, pts)
	if err != nil {
		return nil, fmt.Errorf("core: appro: %w", err)
	}

	// tau(v) upper bounds for the initial V'_H stops (Eq. (2)). Because
	// V'_H is independent in H, no two initial stops share a sensor, so
	// tau'(v) == tau(v) for all of them.
	service := make([]float64, len(c.vh))
	vhPts := make([]geom.Point, len(c.vh))
	for i, hIdx := range c.vh {
		vhPts[i] = pts[c.si[hIdx]]
		service[i] = c.tau(in, hIdx)
	}

	// Step 5: K node-disjoint closed tours over V'_H via the K-minMax
	// closed tour approximation.
	kt, err := ktour.MinMax(ctx, ktour.Input{
		Depot:   in.Depot,
		Nodes:   vhPts,
		Service: service,
		Speed:   in.Speed,
		K:       in.K,
	})
	if err != nil {
		return nil, fmt.Errorf("core: k-minmax subroutine: %w", err)
	}

	// Initial placement of V'_H per the K-minMax tours, then step 6-24:
	// insert the pending candidates U = S_I \ V'_H one by one, each after
	// its H-neighbor with the latest charging finish time (Eqs. (8), (9),
	// (13)), skipping candidates whose coverage area is already fully
	// charged. The engine (insert.go) drives the selection with a lazy
	// min-heap on f_N and keeps tour times incrementally, producing
	// byte-identical schedules to the straightforward rescan-everything
	// loop (see TestInsertionMatchesReference).
	eng := newInsEngine(in, c, service, kt.Tours)

	sp := tr.Start(obs.StageInsertion)
	defer sp.End()
	if err := eng.run(ctx); err != nil {
		return nil, err
	}
	eng.materialize(sched)
	sched.refreshLongest()
	return sched, nil
}

// candidates is the outcome of Algorithm 1's steps 1-4: S_I (the MIS of
// the charging graph G_c), the auxiliary graph H over S_I, its MIS V'_H
// (indices into si), and each candidate's coverage set N_c+(v) in one flat
// arena (cov.Of(i), ascending).
type candidates struct {
	si, vh []int
	h      *graph.Undirected
	cov    graph.Covers
}

// cover returns candidate i's coverage set N_c+(si[i]), ascending.
func (c *candidates) cover(i int) []int32 { return c.cov.Of(i) }

// tau returns tau(v) for candidate i (Eq. (2)): the longest charging
// duration among the requests it covers.
func (c *candidates) tau(in *Instance, i int) float64 {
	t := 0.0
	for _, u := range c.cover(i) {
		if d := in.Requests[u].Duration; d > t {
			t = d
		}
	}
	return t
}

// buildCandidates runs steps 1-4 and the cover arena for Appro and
// Analyze on a non-empty instance with request positions pts, recording
// charging-graph and mis spans; it returns ctx.Err() between stages. Both
// MIS steps use the max-degree order, which picks hub sensors whose
// charging disks cover the most neighbors: EXPERIMENTS.md's retired MIS
// ablation measured 17-28% longer plans under the other orders.
//
// G_c is the one request index: the coverage sets N_c+(v) are its closed
// rows (graph.ClosedNeighborhoods), and H's pair test reads those sets,
// so no other grid over the requests is built.
func buildCandidates(ctx context.Context, in *Instance, pts []geom.Point) (candidates, error) {
	tr := obs.FromContext(ctx)
	misCfg := graph.MISConfig{Tracer: tr}

	// Step 1-2: charging graph G_c and its MIS S_I (candidate sojourns).
	sp := tr.Start(obs.StageChargingGraph)
	gc := graph.UnitDisk(pts, in.Gamma)
	sp.End()
	sp = tr.Start(obs.StageMIS)
	si := graph.MaximalIndependentSetWith(gc, graph.MISMaxDegree, misCfg)
	sp.End()
	if err := ctx.Err(); err != nil {
		return candidates{}, err
	}

	// Step 3-4: coverage sets N_c+(v) for each candidate sojourn, the
	// auxiliary graph H over S_I built on them, and H's MIS V'_H.
	sp = tr.Start(obs.StageChargingGraph)
	cov := gc.ClosedNeighborhoods(si)
	siPts := make([]geom.Point, len(si))
	for i, v := range si {
		siPts[i] = pts[v]
	}
	h := graph.IntersectionOf(siPts, in.Gamma, cov)
	sp.End()
	sp = tr.Start(obs.StageMIS)
	vh := graph.MaximalIndependentSetWith(h, graph.MISMaxDegree, misCfg)
	sp.End()
	if err := ctx.Err(); err != nil {
		return candidates{}, err
	}
	return candidates{si: si, vh: vh, h: h, cov: cov}, nil
}
