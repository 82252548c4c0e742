package tsp

import (
	"context"
	"math/rand"

	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/par"
)

// TwoOptRestarts runs restarts independent 2-opt descents — the first
// from the tour as given, each subsequent one from a double-bridge
// perturbation of it seeded by the restart index — across at most
// par.Size(workers) goroutines, and installs the best resulting tour in t.
//
// The winner is chosen by tour length with ties broken by lexicographically
// smallest vertex order, so the result is a pure function of (t, pts,
// restarts): byte-identical at any worker count, and never longer than a
// plain TwoOpt descent (restart 0 is exactly that descent). restarts <= 1
// degenerates to TwoOpt itself, goroutine-free. Order[0] is kept as the
// start vertex of every candidate.
//
// Returns the number of improving moves the winning descent applied.
// Cancelling ctx stops undispatched restarts; the best among the descents
// that did run (always including none-yet = the input tour) still wins, so
// TwoOptRestarts degrades to a weaker optimizer rather than failing. The
// whole refinement is recorded under the obs kminmax/2opt span when ctx
// carries a tracer.
func TwoOptRestarts(ctx context.Context, t *Tour, pts []geom.Point, restarts, workers int) int {
	if len(t.Order) >= 4 {
		defer obs.FromContext(ctx).Start(obs.StageKMinMaxTwoOpt).End()
	}
	if restarts <= 1 {
		return TwoOpt(t, pts, 0)
	}
	type candidate struct {
		order []int
		len   float64
		moves int
		ran   bool
	}
	cands, _ := par.Map(ctx, restarts, workers, func(_ context.Context, r int) (candidate, error) {
		c := t.Clone()
		if r > 0 {
			doubleBridge(c.Order, rand.New(rand.NewSource(int64(r))))
		}
		moves := TwoOpt(&c, pts, 0)
		return candidate{order: c.Order, len: c.Length(pts), moves: moves, ran: true}, nil
	})
	best := candidate{order: t.Order, len: t.Length(pts)}
	for _, c := range cands {
		if !c.ran {
			continue // skipped by cancellation
		}
		if c.len < best.len || (c.len == best.len && lexLess(c.order, best.order)) {
			best = c
		}
	}
	copy(t.Order, best.order)
	return best.moves
}

// doubleBridge applies the classic 4-opt double-bridge perturbation to
// order in place, keeping order[0] fixed: the tour A|B|C|D (cuts drawn
// from rng) is reassembled as A|C|B|D. It is the standard 2-opt escape
// move: no sequence of 2-opt steps can undo it in one round.
func doubleBridge(order []int, rng *rand.Rand) {
	n := len(order)
	if n < 8 {
		return // too short for three interior cuts to matter
	}
	// Three distinct interior cut points 1 <= p1 < p2 < p3 < n.
	p1 := 1 + rng.Intn(n-3)
	p2 := p1 + 1 + rng.Intn(n-p1-2)
	p3 := p2 + 1 + rng.Intn(n-p2-1)
	out := make([]int, 0, n)
	out = append(out, order[:p1]...)
	out = append(out, order[p2:p3]...)
	out = append(out, order[p1:p2]...)
	out = append(out, order[p3:]...)
	copy(order, out)
}

// lexLess reports whether a is lexicographically smaller than b — the
// deterministic tiebreak for equal-length tours.
func lexLess(a, b []int) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}
