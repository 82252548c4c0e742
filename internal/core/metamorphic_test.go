package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/geom"
)

// Metamorphic properties of Algorithm Appro. The longest-charge-delay
// problem is defined on a *set* of sensors in the Euclidean plane, so its
// solution must not care how the input is written down:
//
//   - rigid motions (translation, rotation about the depot's frame) leave
//     every pairwise distance unchanged, so the tour structure must
//     survive and the longest delay may move only by float noise;
//   - permuting the request slice relabels indices and nothing else;
//   - gamma = 0 collapses multi-node charging to one-to-one charging, so
//     every sensor must get its own dedicated stop.

func metaInstance(n int, seed int64) *Instance {
	rng := rand.New(rand.NewSource(seed))
	in := &Instance{Depot: geom.Pt(50, 50), Gamma: 2.7, Speed: 1, K: 2}
	for i := 0; i < n; i++ {
		in.Requests = append(in.Requests, Request{
			Pos:      geom.Pt(rng.Float64()*100, rng.Float64()*100),
			Duration: (1.2 + 0.3*rng.Float64()) * 3600,
			Lifetime: (1 + rng.Float64()*6) * 86400,
		})
	}
	return in
}

// structure reduces a schedule to its per-tour stop-count shape — the
// rigid-motion-invariant part of the plan (node labels stay fixed under
// translation/rotation because positions keep their indices).
func structure(s *Schedule) [][]int {
	out := make([][]int, len(s.Tours))
	for k, tr := range s.Tours {
		for _, st := range tr.Stops {
			out[k] = append(out[k], st.Node)
		}
		if out[k] == nil {
			out[k] = []int{}
		}
	}
	return out
}

func planMeta(t *testing.T, in *Instance) *Schedule {
	t.Helper()
	s, err := Appro(context.Background(), in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// relTol compares within 1e-9 relative to the magnitude of the delays —
// rigid motions perturb every coordinate in the last ulp, and those errors
// accumulate linearly through the tour-time bookkeeping.
func relTol(a, b float64) bool {
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= 1e-9*scale
}

func TestMetamorphicTranslationInvariance(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			in := metaInstance(200, seed)
			base := planMeta(t, in)

			for _, d := range []geom.Point{geom.Pt(1000, -250), geom.Pt(-3.5, 17.25)} {
				moved := *in
				moved.Depot = geom.Pt(in.Depot.X+d.X, in.Depot.Y+d.Y)
				moved.Requests = append([]Request(nil), in.Requests...)
				for i := range moved.Requests {
					moved.Requests[i].Pos = geom.Pt(in.Requests[i].Pos.X+d.X, in.Requests[i].Pos.Y+d.Y)
				}
				got := planMeta(t, &moved)
				if !reflect.DeepEqual(structure(got), structure(base)) {
					t.Fatalf("translation by (%v,%v) changed the tour structure", d.X, d.Y)
				}
				if !relTol(got.Longest, base.Longest) {
					t.Fatalf("translation by (%v,%v): longest %.12f vs %.12f", d.X, d.Y, got.Longest, base.Longest)
				}
			}
		})
	}
}

func TestMetamorphicRotationInvariance(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			in := metaInstance(200, seed)
			base := planMeta(t, in)

			for _, theta := range []float64{math.Pi / 7, 1.234, math.Pi / 2} {
				sin, cos := math.Sincos(theta)
				rot := func(p geom.Point) geom.Point {
					return geom.Pt(p.X*cos-p.Y*sin, p.X*sin+p.Y*cos)
				}
				turned := *in
				turned.Depot = rot(in.Depot)
				turned.Requests = append([]Request(nil), in.Requests...)
				for i := range turned.Requests {
					turned.Requests[i].Pos = rot(in.Requests[i].Pos)
				}
				got := planMeta(t, &turned)
				if !reflect.DeepEqual(structure(got), structure(base)) {
					t.Fatalf("rotation by %.4f changed the tour structure", theta)
				}
				if !relTol(got.Longest, base.Longest) {
					t.Fatalf("rotation by %.4f: longest %.12f vs %.12f", theta, got.Longest, base.Longest)
				}
			}
		})
	}
}

// TestMetamorphicPermutationInvariance: relabeling the request slice must
// relabel the schedule and nothing else — the longest delay is *exactly*
// equal (same floats, same arithmetic), and the whole schedule matches
// once mapped through the permutation.
func TestMetamorphicPermutationInvariance(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			in := metaInstance(150, seed)
			base := planMeta(t, in)

			rng := rand.New(rand.NewSource(seed + 1000))
			for trial := 0; trial < 3; trial++ {
				perm := rng.Perm(len(in.Requests)) // perm[new] = old
				shuffled := *in
				shuffled.Requests = make([]Request, len(in.Requests))
				inv := make([]int, len(perm)) // inv[old] = new
				for newIdx, oldIdx := range perm {
					shuffled.Requests[newIdx] = in.Requests[oldIdx]
					inv[oldIdx] = newIdx
				}
				got := planMeta(t, &shuffled)
				if got.Longest != base.Longest {
					t.Fatalf("trial %d: permutation changed the longest delay: %v vs %v",
						trial, got.Longest, base.Longest)
				}
				// Map the baseline into the shuffled index space; the two
				// schedules must then be deeply equal.
				want := remapForTest(base, inv)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d: permuted schedule is not the relabeled original", trial)
				}
			}
		})
	}
}

// remapForTest relabels a schedule's request indices through inv[old]=new.
func remapForTest(s *Schedule, inv []int) *Schedule {
	out := &Schedule{Tours: make([]Tour, len(s.Tours)), Longest: s.Longest, WaitTime: s.WaitTime}
	for k, tr := range s.Tours {
		ct := Tour{Delay: tr.Delay}
		for _, st := range tr.Stops {
			cs := Stop{Node: inv[st.Node], Arrive: st.Arrive, Duration: st.Duration}
			for _, u := range st.Covers {
				cs.Covers = append(cs.Covers, inv[u])
			}
			sort.Ints(cs.Covers)
			ct.Stops = append(ct.Stops, cs)
		}
		out.Tours[k] = ct
	}
	return out
}

// TestMetamorphicGammaZeroDegenerates: with a zero charging radius no stop
// can serve a neighbor, so Appro must place exactly one stop per sensor,
// each covering only itself, with the sensor's full charge duration.
func TestMetamorphicGammaZeroDegenerates(t *testing.T) {
	in := metaInstance(120, 5)
	in.Gamma = 0
	s := planMeta(t, in)

	if got := s.NumStops(); got != len(in.Requests) {
		t.Fatalf("gamma=0: %d stops for %d sensors", got, len(in.Requests))
	}
	seen := make([]bool, len(in.Requests))
	for _, tour := range s.Tours {
		for _, st := range tour.Stops {
			if len(st.Covers) != 1 || st.Covers[0] != st.Node {
				t.Fatalf("gamma=0: stop at %d covers %v, want itself only", st.Node, st.Covers)
			}
			if seen[st.Node] {
				t.Fatalf("gamma=0: sensor %d served twice", st.Node)
			}
			seen[st.Node] = true
			if st.Duration != in.Requests[st.Node].Duration {
				t.Fatalf("gamma=0: stop at %d charges %.1f s, want %.1f s",
					st.Node, st.Duration, in.Requests[st.Node].Duration)
			}
		}
	}
	if vs := Verify(in, s); len(vs) != 0 {
		t.Fatalf("gamma=0 schedule infeasible: %v", vs[0])
	}
}
