package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/graph"
)

func TestAnalyzeEmpty(t *testing.T) {
	in := &Instance{Depot: geom.Pt(0, 0), Gamma: 2.7, Speed: 1, K: 1}
	a, err := Analyze(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if a.SI != 0 || a.VH != 0 || a.Ratio != 1 {
		t.Errorf("empty analysis: %+v", a)
	}
}

func TestAnalyzeRejectsInvalid(t *testing.T) {
	in := &Instance{Depot: geom.Pt(0, 0), Gamma: 2.7, Speed: 0, K: 1}
	if _, err := Analyze(context.Background(), in); err == nil {
		t.Error("invalid instance accepted")
	}
}

// TestLemmaTwoDegreeBound is the paper's Lemma 2 as a property test: for
// any instance, the auxiliary graph H over an MIS of the charging graph
// has maximum degree at most ceil(8*pi) = 26. The lemma holds for any
// MIS, so besides Analyze's (Appro's max-degree order) the trials build
// S_I and H from a min-degree and a lexicographic MIS.
func TestLemmaTwoDegreeBound(t *testing.T) {
	rng := rand.New(rand.NewSource(271))
	for trial := 0; trial < 25; trial++ {
		n := 50 + rng.Intn(1000)
		// Vary density: fields from 20x20 (very dense) to 150x150.
		side := 20 + rng.Float64()*130
		in := &Instance{Depot: geom.Pt(side/2, side/2), Gamma: 2.7, Speed: 1, K: 2}
		for i := 0; i < n; i++ {
			in.Requests = append(in.Requests, Request{
				Pos:      geom.Pt(rng.Float64()*side, rng.Float64()*side),
				Duration: 3600,
			})
		}
		var deltaH int
		switch trial % 3 {
		case 0:
			a, err := Analyze(context.Background(), in)
			if err != nil {
				t.Fatal(err)
			}
			deltaH = a.DeltaH
		case 1:
			pts := in.Positions()
			si := graph.MaximalIndependentSet(graph.UnitDisk(pts, in.Gamma), graph.MISMinDegree)
			deltaH = graph.IntersectionGraph(pts, si, in.Gamma).MaxDegree()
		default:
			pts := in.Positions()
			si := lexicographicMIS(graph.UnitDisk(pts, in.Gamma))
			deltaH = graph.IntersectionGraph(pts, si, in.Gamma).MaxDegree()
		}
		if deltaH > LemmaTwoBound {
			t.Fatalf("trial %d (n=%d side=%.0f): Delta_H = %d exceeds Lemma 2 bound %d",
				trial, n, side, deltaH, LemmaTwoBound)
		}
	}
}

// lexicographicMIS greedily scans g's vertices in index order, keeping
// each one no kept vertex is adjacent to; the result is ascending.
func lexicographicMIS(g *graph.Undirected) []int {
	blocked := make([]bool, g.Len())
	var out []int
	for v := range blocked {
		if blocked[v] {
			continue
		}
		out = append(out, v)
		for _, w := range g.Neighbors(v) {
			blocked[w] = true
		}
	}
	return out
}

func TestAnalyzeRatioFormula(t *testing.T) {
	// Paper's example: sensors request at <=20% residual, so
	// tau_max/tau_min <= 1.25 and the instance ratio is
	// (1 + DeltaH * 1.25) * 5.
	rng := rand.New(rand.NewSource(3))
	in := &Instance{Depot: geom.Pt(50, 50), Gamma: 2.7, Speed: 1, K: 2}
	for i := 0; i < 400; i++ {
		in.Requests = append(in.Requests, Request{
			Pos:      geom.Pt(rng.Float64()*100, rng.Float64()*100),
			Duration: (1.2 + 0.3*rng.Float64()) * 3600,
		})
	}
	a, err := Analyze(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if a.TauMax/a.TauMin > 1.25+1e-9 {
		t.Errorf("tau ratio %v exceeds the 20%%-threshold bound 1.25", a.TauMax/a.TauMin)
	}
	want := (1 + float64(a.DeltaH)*a.TauMax/a.TauMin) * 5
	if math.Abs(a.Ratio-want) > 1e-9 {
		t.Errorf("Ratio = %v, want %v", a.Ratio, want)
	}
	// The instance bound is far below the universal worst case.
	worst := 40*math.Pi*a.TauMax/a.TauMin + 1
	if a.Ratio > worst {
		t.Errorf("instance ratio %v above Theorem 1 worst case %v", a.Ratio, worst)
	}
	if a.SI < a.VH || a.VH < 1 {
		t.Errorf("set sizes inconsistent: |S_I|=%d |V'_H|=%d", a.SI, a.VH)
	}
}

func TestAnalyzeZeroDurations(t *testing.T) {
	in := &Instance{
		Depot: geom.Pt(0, 0),
		Requests: []Request{
			{Pos: geom.Pt(10, 0), Duration: 0},
			{Pos: geom.Pt(-10, 0), Duration: 0},
		},
		Gamma: 2.7, Speed: 1, K: 1,
	}
	a, err := Analyze(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if a.Ratio != 5 {
		t.Errorf("pure-travel ratio = %v, want 5", a.Ratio)
	}
	// Mixed zero and positive durations degenerate the tau ratio.
	in.Requests[0].Duration = 100
	a, err = Analyze(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(a.Ratio, 1) {
		t.Errorf("degenerate tau ratio should be +Inf, got %v", a.Ratio)
	}
}
