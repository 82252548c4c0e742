package ktour

import "repro/internal/geom"

// The split loops MinMax ran before its legs were computed once. They
// recompute every leg with three Hypot calls per node per probe, and are
// the references TestSplitMatchesReference checks legs.split against.

// splitAtTarget greedily packs the ordered nodes into consecutive closed
// tours each of delay at most target (a tour whose single node already
// exceeds target still gets its own tour, so the result is always a
// partition).
func splitAtTarget(in Input, order []int, target float64) [][]int {
	var parts [][]int
	i := 0
	for i < len(order) {
		// Grow the segment [i..j) while its closed-tour delay fits.
		j := i + 1
		cost := TourDelay(in, order[i:j])
		for j < len(order) {
			next := cost -
				geom.Dist(in.Nodes[order[j-1]], in.Depot)/in.Speed +
				geom.Dist(in.Nodes[order[j-1]], in.Nodes[order[j]])/in.Speed +
				in.service(order[j]) +
				geom.Dist(in.Nodes[order[j]], in.Depot)/in.Speed
			if next > target+1e-12 {
				break
			}
			cost = next
			j++
		}
		part := append([]int(nil), order[i:j]...)
		parts = append(parts, part)
		i = j
	}
	return parts
}

// splitCountAtTarget is splitAtTarget without materializing the parts:
// the same greedy packing loop, float for float, returning only how many
// tours it needs.
func splitCountAtTarget(in Input, order []int, target float64) int {
	parts := 0
	i := 0
	for i < len(order) {
		j := i + 1
		cost := TourDelay(in, order[i:j])
		for j < len(order) {
			next := cost -
				geom.Dist(in.Nodes[order[j-1]], in.Depot)/in.Speed +
				geom.Dist(in.Nodes[order[j-1]], in.Nodes[order[j]])/in.Speed +
				in.service(order[j]) +
				geom.Dist(in.Nodes[order[j]], in.Depot)/in.Speed
			if next > target+1e-12 {
				break
			}
			cost = next
			j++
		}
		parts++
		i = j
	}
	return parts
}
