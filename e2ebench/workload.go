package main

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/geom"
)

// density is the paper's request density: 1200 requests on a 100 m x
// 100 m field. The planning workloads hold it constant by growing the
// field side as sqrt(n/density), like wrsn-bench -scaling.
const density = 0.12

// clients is the closed-loop client count of every serve phase: each
// client sends its next request only after the previous reply arrived.
const clients = 2

// workload is one set of seeded inputs and the way the run spends its
// time on them. Every workload plans directly, checks the plans, and
// fetches them through an in-process /v1/plan service; the fields below
// decide which of those dominates.
type workload struct {
	name string
	why  string
	// gated workloads are listed in BENCHMARK.json and hold later
	// changes to its bounds. dense-10k is not: on a shared 2-vCPU machine
	// its second-long, memory-heavy plans swing by about a fifth from run
	// to run, as wide as the widest bound, so it is run by hand only.
	gated bool
	// n, k and side shape each generated instance (cmd/wrsn-plan's
	// -n, -k and -field).
	n, k int
	side float64
	// instances is the number of distinct instances the direct phase
	// plans round-robin, so that no single instance's quirks set a
	// metric. Instance 0 is exactly
	// `wrsn-plan -n <n> -k <k> -field <side> -seed <seed>`.
	instances int
	// hot is how many of those instances, from the first, the serve
	// phase repeats (cache hits once warmed).
	hot int
	// freshShare is the share of serve requests that carry a never-seen
	// instance (a cache miss that plans and inserts into the LRU).
	freshShare float64
	// directFills makes the direct plan-and-check loop fill the run time;
	// otherwise it plans each instance plansPerInstance times and the
	// serve phase fills the run time instead.
	directFills bool
	// serveRequests bounds the serve phase by count when directFills is
	// set; 40 requests leave 10 beyond the 75th percentile.
	serveRequests int
}

var workloads = []workload{
	{
		name: "verified-30k", gated: true,
		why: "n=30,000 at the paper's density puts K-minMax on the sparse kernels (|V'_H| ~ 7,500) and makes the quadratic lower bound and verifier the hot spots",
		n:   30000, k: 4, side: sideFor(30000), instances: 3, hot: 1,
		directFills: true, serveRequests: 40,
	},
	{
		name: "dense-10k",
		why:  "n=10,000 keeps |V'_H| ~ 2,500 below the 3000 kernel crossover, so exact dense matching and full 2-opt dominate the plan",
		n:    10000, k: 4, side: sideFor(10000), instances: 4, hot: 1,
		directFills: true, serveRequests: 40,
	},
	{
		name: "serve-mix", gated: true,
		why: "paper-scale /v1/plan traffic from 2 closed-loop clients: 4 in 5 requests repeat a hot set (cache reads), 1 in 5 is a fresh instance (plan + LRU write)",
		n:   1200, k: 2, side: 100, instances: 16, hot: 16, freshShare: 0.2,
	},
}

func sideFor(n int) float64 { return math.Sqrt(float64(n) / density) }

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// buildInstance draws a request set exactly as cmd/wrsn-plan's
// buildInstance does — same generator, same draw order — so a seed here
// reproduces the wrsn-plan and wrsn-bench -scaling instance for that seed.
func buildInstance(n, k int, seed int64, side float64) *core.Instance {
	rng := rand.New(rand.NewSource(seed))
	in := &core.Instance{
		Depot: geom.Pt(side/2, side/2),
		Gamma: 2.7,
		Speed: 1,
		K:     k,
	}
	for i := 0; i < n; i++ {
		in.Requests = append(in.Requests, core.Request{
			Pos:      geom.Pt(rng.Float64()*side, rng.Float64()*side),
			Duration: (1.2 + 0.3*rng.Float64()) * 3600,
			Lifetime: (1 + rng.Float64()*6) * 86400,
		})
	}
	return in
}

// instanceSeed is the seed of instance i. Instance 0 uses the workload
// seed itself; the rest sit far above any seed a caller types.
func instanceSeed(seed int64, i int) int64 {
	if i == 0 {
		return seed
	}
	return seed*1_000_003 + int64(i)<<32
}

// clientStream is the request-choice stream of serve client c: which hot
// instance or which fresh instance seed comes next.
func clientStream(seed int64, c int) *rand.Rand {
	return rand.New(rand.NewSource(seed*7_919 + int64(c+1)<<40))
}

// canonical returns the instance with its requests in the order Appro
// plans them (core's canonical order: depot distance, then duration,
// lifetime, x, y), so layer replays see the exact graphs the planner sees.
func canonical(in *core.Instance) *core.Instance {
	dist := make([]float64, len(in.Requests))
	perm := make([]int, len(in.Requests))
	for i, r := range in.Requests {
		dist[i] = geom.Dist(in.Depot, r.Pos)
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool {
		ia, ib := perm[a], perm[b]
		ra, rb := in.Requests[ia], in.Requests[ib]
		switch {
		case dist[ia] != dist[ib]:
			return dist[ia] < dist[ib]
		case ra.Duration != rb.Duration:
			return ra.Duration < rb.Duration
		case ra.Lifetime != rb.Lifetime:
			return ra.Lifetime < rb.Lifetime
		case ra.Pos.X != rb.Pos.X:
			return ra.Pos.X < rb.Pos.X
		}
		return ra.Pos.Y < rb.Pos.Y
	})
	out := *in
	out.Requests = make([]core.Request, len(perm))
	for rank, i := range perm {
		out.Requests[rank] = in.Requests[i]
	}
	return &out
}
