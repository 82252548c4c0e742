package graph

import (
	"math/rand"
	"sort"

	"repro/internal/obs"
)

// MISOrder selects the vertex-selection strategy for maximal independent
// set construction. All strategies produce a set that is independent and
// maximal; they differ in which maximal set they find, which affects the
// number of sojourn locations Algorithm Appro considers.
type MISOrder int

const (
	// MISLexicographic greedily scans vertices 0..n-1. Deterministic.
	MISLexicographic MISOrder = iota + 1
	// MISMinDegree repeatedly picks a remaining vertex of minimum residual
	// degree. Tends to produce larger independent sets, i.e. denser
	// candidate sojourn coverage. Deterministic.
	MISMinDegree
	// MISMaxDegree repeatedly picks a remaining vertex of maximum residual
	// degree. Tends to produce smaller independent sets, i.e. fewer stops
	// each covering many sensors. Deterministic.
	MISMaxDegree
	// MISRandom scans vertices in an order drawn from the provided source.
	MISRandom
)

// String implements fmt.Stringer.
func (o MISOrder) String() string {
	switch o {
	case MISLexicographic:
		return "lexicographic"
	case MISMinDegree:
		return "min-degree"
	case MISMaxDegree:
		return "max-degree"
	case MISRandom:
		return "random"
	default:
		return "unknown"
	}
}

// MISConfig carries the optional knobs of MaximalIndependentSetWith. The
// zero value is valid and means: no randomness source, no tracing.
type MISConfig struct {
	// Rng drives the seeded order MISRandom; it is ignored by the
	// deterministic orders and may be nil (a fixed seed-1 source
	// substitutes).
	Rng *rand.Rand
	// Tracer, when non-nil, receives the degree orders' nested
	// mis/select and mis/update spans.
	Tracer *obs.Tracer
}

// MaximalIndependentSet returns a maximal independent set of g using the
// given strategy, as an ascending slice of vertex indices. rng is used only
// by the seeded strategies and may be nil otherwise. The result is never
// nil for a non-empty graph: every vertex set has a maximal independent
// set.
func MaximalIndependentSet(g *Undirected, order MISOrder, rng *rand.Rand) []int {
	return MaximalIndependentSetWith(g, order, MISConfig{Rng: rng})
}

// MaximalIndependentSetWith is MaximalIndependentSet with the full knob
// set: a randomness source for the seeded strategies and an optional
// tracer.
func MaximalIndependentSetWith(g *Undirected, order MISOrder, cfg MISConfig) []int {
	n := g.Len()
	if n == 0 {
		return nil
	}
	switch order {
	case MISMinDegree, MISMaxDegree:
		return misByDegree(g, order == MISMinDegree, cfg)
	case MISRandom:
		// Each branch computes only its own permutation: the fixed-seed
		// fallback is for a nil source only, never thrown-away work.
		var perm []int
		if cfg.Rng != nil {
			perm = cfg.Rng.Perm(n)
		} else {
			perm = rand.New(rand.NewSource(1)).Perm(n)
		}
		return misScan(g, perm)
	default: // MISLexicographic and any unknown value
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return misScan(g, idx)
	}
}

// misScan greedily adds vertices in the given scan order, skipping any
// vertex adjacent to an already-selected one.
func misScan(g *Undirected, scan []int) []int {
	blocked := make([]bool, g.Len())
	var out []int
	for _, v := range scan {
		if blocked[v] {
			continue
		}
		out = append(out, v)
		blocked[v] = true
		for _, w := range g.Neighbors(v) {
			blocked[w] = true
		}
	}
	sort.Ints(out)
	return out
}

// misByDegree repeatedly selects the remaining vertex with minimum (or
// maximum) residual degree, lowest vertex index among ties, removing it
// and its neighbors. The selection runs on the incremental bucket queue
// (bucket.go); the selected vertices are returned sorted ascending.
func misByDegree(g *Undirected, wantMin bool, cfg MISConfig) []int {
	out := misByDegreeBucket(g, wantMin, cfg.Tracer)
	sort.Ints(out)
	return out
}

// IsIndependentSet reports whether no two vertices of set are adjacent in g.
func IsIndependentSet(g *Undirected, set []int) bool {
	in := make(map[int]bool, len(set))
	for _, v := range set {
		if v < 0 || v >= g.Len() || in[v] {
			return false
		}
		in[v] = true
	}
	for _, v := range set {
		for _, w := range g.Neighbors(v) {
			if in[int(w)] {
				return false
			}
		}
	}
	return true
}

// IsMaximalIndependentSet reports whether set is independent and no further
// vertex of g can be added to it, i.e. every vertex outside the set has a
// neighbor inside it.
func IsMaximalIndependentSet(g *Undirected, set []int) bool {
	if !IsIndependentSet(g, set) {
		return false
	}
	in := make([]bool, g.Len())
	for _, v := range set {
		in[v] = true
	}
	for v := 0; v < g.Len(); v++ {
		if in[v] {
			continue
		}
		dominated := false
		for _, w := range g.Neighbors(v) {
			if in[w] {
				dominated = true
				break
			}
		}
		if !dominated {
			return false
		}
	}
	return true
}
