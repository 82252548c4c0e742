package graph

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/obs"
)

func randomGraph(rng *rand.Rand, n int, p float64) *Undirected {
	var edges [][2]int
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				edges = append(edges, [2]int{u, v})
			}
		}
	}
	return FromEdges(n, edges)
}

func completeGraph(n int) *Undirected {
	var edges [][2]int
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			edges = append(edges, [2]int{u, v})
		}
	}
	return FromEdges(n, edges)
}

func TestMISAllOrdersValid(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	orders := []MISOrder{MISMinDegree, MISMaxDegree}
	for trial := 0; trial < 30; trial++ {
		n := rng.Intn(60)
		g := randomGraph(rng, n, rng.Float64()*0.5)
		for _, ord := range orders {
			set := MaximalIndependentSet(g, ord)
			if n > 0 && len(set) == 0 {
				t.Fatalf("%v: empty MIS on non-empty graph", ord)
			}
			if !IsIndependentSet(g, set) {
				t.Fatalf("%v: not independent: %v", ord, set)
			}
			if !IsMaximalIndependentSet(g, set) {
				t.Fatalf("%v: not maximal: %v", ord, set)
			}
		}
	}
}

func TestMISEmptyGraph(t *testing.T) {
	g := FromEdges(0, nil)
	if set := MaximalIndependentSet(g, MISMaxDegree); set != nil {
		t.Errorf("empty graph: MIS = %v, want nil", set)
	}
}

func TestMISNoEdges(t *testing.T) {
	g := FromEdges(5, nil)
	set := MaximalIndependentSet(g, MISMinDegree)
	if len(set) != 5 {
		t.Errorf("edgeless graph: |MIS| = %d, want 5", len(set))
	}
}

func TestMISCompleteGraph(t *testing.T) {
	g := completeGraph(6)
	for _, ord := range []MISOrder{MISMinDegree, MISMaxDegree} {
		set := MaximalIndependentSet(g, ord)
		if len(set) != 1 {
			t.Errorf("%v: complete graph |MIS| = %d, want 1", ord, len(set))
		}
	}
}

func TestMISStar(t *testing.T) {
	// Star K_{1,5}: min-degree picks leaves (size 5), max-degree picks the
	// hub (size 1).
	g := FromEdges(6, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}})
	if set := MaximalIndependentSet(g, MISMinDegree); len(set) != 5 {
		t.Errorf("min-degree star: |MIS| = %d, want 5", len(set))
	}
	if set := MaximalIndependentSet(g, MISMaxDegree); len(set) != 1 || set[0] != 0 {
		t.Errorf("max-degree star: MIS = %v, want [0]", set)
	}
}

func TestMISUnitDiskPairwiseDistance(t *testing.T) {
	// The defining property Appro relies on: any two nodes of an MIS of
	// the charging graph are more than gamma apart.
	rng := rand.New(rand.NewSource(21))
	const gamma = 2.7
	for trial := 0; trial < 10; trial++ {
		n := 20 + rng.Intn(200)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(rng.Float64()*100, rng.Float64()*100)
		}
		g := UnitDisk(pts, gamma)
		set := MaximalIndependentSet(g, MISMinDegree)
		for i := 0; i < len(set); i++ {
			for j := i + 1; j < len(set); j++ {
				if d := geom.Dist(pts[set[i]], pts[set[j]]); d <= gamma {
					t.Fatalf("MIS nodes %d,%d at distance %v <= gamma", set[i], set[j], d)
				}
			}
		}
	}
}

// TestMISDegreeRecordsSubSpans: a traced degree-ordered selection
// attributes its time to the nested mis/select and mis/update spans.
func TestMISDegreeRecordsSubSpans(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(5)), 70, 0.1)
	for _, order := range []MISOrder{MISMinDegree, MISMaxDegree} {
		tr := obs.New()
		MaximalIndependentSetWith(g, order, MISConfig{Tracer: tr})
		seen := map[string]bool{}
		for _, st := range tr.Report().Stages {
			seen[st.Name] = true
		}
		if !seen[obs.StageMISSelect] || !seen[obs.StageMISUpdate] {
			t.Errorf("%v: missing nested mis spans in %v", order, tr.Report().Stages)
		}
	}
}

func TestIsIndependentSetRejectsBadInput(t *testing.T) {
	g := FromEdges(3, [][2]int{{0, 1}})
	if IsIndependentSet(g, []int{0, 1}) {
		t.Error("adjacent pair accepted")
	}
	if IsIndependentSet(g, []int{0, 0}) {
		t.Error("duplicate vertex accepted")
	}
	if IsIndependentSet(g, []int{-1}) || IsIndependentSet(g, []int{7}) {
		t.Error("out-of-range vertex accepted")
	}
	if !IsIndependentSet(g, []int{0, 2}) {
		t.Error("valid set rejected")
	}
	if IsMaximalIndependentSet(g, []int{2}) {
		t.Error("{2} is not maximal: 0 or 1 could be added")
	}
	if !IsMaximalIndependentSet(g, []int{0, 2}) {
		t.Error("{0,2} should be maximal")
	}
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
