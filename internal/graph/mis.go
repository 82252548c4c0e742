package graph

import (
	"math/rand"
	"sort"

	"repro/internal/obs"
)

// MISOrder selects the vertex-selection strategy for maximal independent
// set construction. Both strategies produce a set that is independent and
// maximal; they differ in which maximal set they find, which affects the
// number of sojourn locations Algorithm Appro considers.
type MISOrder int

const (
	// MISMaxDegree repeatedly picks a remaining vertex of maximum residual
	// degree. Tends to produce smaller independent sets, i.e. fewer stops
	// each covering many sensors. It is Appro's order and the zero value.
	MISMaxDegree MISOrder = iota
	// MISMinDegree repeatedly picks a remaining vertex of minimum residual
	// degree. Tends to produce larger independent sets, i.e. denser
	// candidate sojourn coverage.
	MISMinDegree
)

// MISConfig carries the optional knobs of MaximalIndependentSetWith. The
// zero value is valid and means no tracing.
type MISConfig struct {
	// Rng is ignored: neither order is seeded. The field stays so that
	// callers written against the retired seeded order still compile.
	Rng *rand.Rand
	// Tracer, when non-nil, receives the nested mis/select and
	// mis/update spans.
	Tracer *obs.Tracer
}

// MaximalIndependentSet returns a maximal independent set of g using the
// given strategy, as an ascending slice of vertex indices. The result is
// never nil for a non-empty graph: every vertex set has a maximal
// independent set.
func MaximalIndependentSet(g *Undirected, order MISOrder) []int {
	return MaximalIndependentSetWith(g, order, MISConfig{})
}

// MaximalIndependentSetWith is MaximalIndependentSet with an optional
// tracer. It repeatedly selects the remaining vertex with minimum (for
// MISMinDegree) or maximum (any other order) residual degree, lowest
// vertex index among ties, removing it and its neighbors. The selection
// runs on the incremental bucket queue (bucket.go).
func MaximalIndependentSetWith(g *Undirected, order MISOrder, cfg MISConfig) []int {
	if g.Len() == 0 {
		return nil
	}
	out := misByDegreeBucket(g, order == MISMinDegree, cfg.Tracer)
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
