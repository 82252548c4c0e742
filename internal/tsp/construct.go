package tsp

import (
	"context"

	"repro/internal/geom"
	"repro/internal/mst"
	"repro/internal/obs"
)

// MSTApprox builds a tour by the classic MST-doubling construction: compute
// the Euclidean MST rooted at start and shortcut its preorder walk, so
// Order[0] is start. The resulting tour is at most twice the MST's weight,
// and so at most twice the optimal TSP tour length (triangle inequality).
// The MST construction is recorded under the kminmax/mst span when ctx
// carries a tracer.
func MSTApprox(ctx context.Context, pts []geom.Point, start int) Tour {
	sp := obs.FromContext(ctx).Start(obs.StageKMinMaxMST)
	tree := mst.EuclideanSparse(pts, start)
	sp.End()
	if tree == nil {
		return Tour{}
	}
	return Tour{Order: tree.PreorderDFS()}
}
