package tsp

import (
	"context"

	"repro/internal/geom"
	"repro/internal/mst"
	"repro/internal/obs"
)

// Construct builds a closed tour over pts from start: the classic
// MST-doubling tour (the preorder walk of the Euclidean MST rooted at
// start, so Order[0] is start), refined by one 2-opt descent (TwoOpt with
// no round cap). The doubling tour is at most twice the MST's weight, and
// so at most twice the optimal tour (triangle inequality); the descent
// never lengthens it. One candidate graph (mst.Candidates) serves both
// steps: it is the MST's pruned edge set and the 2-opt's first neighbour
// ring, the same query on the same grid. The MST, candidate graph
// included, is recorded under the kminmax/mst span and the descent under
// kminmax/2opt when ctx carries a tracer. It returns an empty tour when
// pts is empty or start is out of range.
func Construct(ctx context.Context, pts []geom.Point, start int) Tour {
	if start < 0 || start >= len(pts) {
		return Tour{}
	}
	tr := obs.FromContext(ctx)
	sp := tr.Start(obs.StageKMinMaxMST)
	cand := mst.NewCandidates(pts)
	tree := cand.MST(start)
	sp.End()
	t := Tour{Order: tree.PreorderDFS()}
	if len(t.Order) >= 4 {
		sp := tr.Start(obs.StageKMinMaxTwoOpt)
		twoOpt(&t, pts, cand, 0)
		sp.End()
	}
	return t
}
