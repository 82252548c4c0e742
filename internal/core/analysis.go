package core

import (
	"context"
	"fmt"
	"math"
)

// Analysis reports the quantities the paper's approximation-ratio proof
// (Section V) is built from, computed for a concrete instance. It lets
// callers check Theorem 1's guarantee numerically: the delay of the
// schedule Appro returns is at most Ratio times the optimum.
type Analysis struct {
	// SI is |S_I|, the size of the maximal independent set of the
	// charging graph G_c (the candidate sojourn locations).
	SI int
	// VH is |V'_H|, the size of the maximal independent set of the
	// auxiliary graph H (the initial non-overlapping stops).
	VH int
	// DeltaH is the maximum degree of H. Lemma 2 proves DeltaH <= ceil(8*pi)
	// = 26 for any instance, which is what makes the ratio constant.
	DeltaH int
	// TauMax and TauMin are the longest and shortest per-stop charging
	// durations tau(v) over the candidate sojourn locations (Eq. (2));
	// their ratio enters the bound.
	TauMax, TauMin float64
	// Ratio is the instance's concrete approximation guarantee
	// (1 + DeltaH * TauMax/TauMin) * 5 from Inequality (19); Theorem 1's
	// worst case over all instances is 40*pi*TauMax/TauMin + 1.
	Ratio float64
}

// LemmaTwoBound is the paper's universal upper bound ceil(8*pi) on the
// maximum degree of the auxiliary graph H (Lemma 2).
const LemmaTwoBound = 26 // ceil(8 * pi)

// Analyze computes the approximation-ratio ingredients for the instance.
// It is read-only: no schedule is produced. Analyze runs Appro's own steps
// 1-4, so it honors ctx between those graph stages and records their
// charging-graph/mis spans when ctx carries an obs.Tracer.
// Like Appro it analyzes the canonically ordered request set, so its
// report is invariant under request permutation.
func Analyze(ctx context.Context, in *Instance) (*Analysis, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	in, _ = canonicalize(in)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: analyze: %w", err)
	}
	out := &Analysis{TauMin: math.Inf(1)}
	if len(in.Requests) == 0 {
		out.TauMin = 0
		out.Ratio = 1
		return out, nil
	}
	c, err := buildCandidates(ctx, in, in.Positions())
	if err != nil {
		return nil, fmt.Errorf("core: analyze: %w", err)
	}
	out.SI = len(c.si)
	out.VH = len(c.vh)
	out.DeltaH = c.h.MaxDegree()
	for i := range c.si {
		tau := c.tau(in, i)
		out.TauMax, out.TauMin = max(out.TauMax, tau), min(out.TauMin, tau)
	}
	if out.TauMin <= 0 || math.IsInf(out.TauMin, 1) {
		// Zero-duration stops make the paper's tau_max/tau_min ratio
		// degenerate; report the ratio as +Inf in that case, matching
		// the theorem's requirement that the ratio be bounded only when
		// tau_min > 0.
		if out.TauMax == 0 {
			out.Ratio = 5 // pure travel: the K-minMax bound applies
			out.TauMin = 0
			return out, nil
		}
		out.Ratio = math.Inf(1)
		if math.IsInf(out.TauMin, 1) {
			out.TauMin = 0
		}
		return out, nil
	}
	out.Ratio = (1 + float64(out.DeltaH)*out.TauMax/out.TauMin) * 5
	return out, nil
}
