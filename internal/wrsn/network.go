// Package wrsn models the wireless rechargeable sensor network itself:
// sensors with positions, data rates and batteries, the base station and
// charger depot, the multi-hop routing tree toward the base station, and
// the per-sensor power draw derived from it. It is the glue between the
// energy model and the scheduling algorithms: it identifies
// lifetime-critical sensors, which the simulator (internal/sim) turns
// into core.Instance values.
package wrsn

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/energy"
	"repro/internal/geom"
)

// ErrInvalidNetwork tags every Validate failure, so callers loading
// untrusted network files can test with errors.Is and distinguish
// malformed input from other failures.
var ErrInvalidNetwork = errors.New("wrsn: invalid network")

// Sensor is one stationary rechargeable sensor.
type Sensor struct {
	// ID is the sensor's index in Network.Sensors.
	ID int `json:"id"`
	// Pos is the sensor's location in the field.
	Pos geom.Point `json:"pos"`
	// DataRate is b_i, the sensing data rate in bits/s.
	DataRate float64 `json:"data_rate"`
	// Battery is the sensor's rechargeable battery.
	Battery energy.Battery `json:"battery"`
	// Parent is the routing parent's sensor ID, or -1 when the sensor
	// uplinks directly to the base station. Set by BuildRouting.
	Parent int `json:"parent"`
	// RelayBps is the descendant traffic this sensor forwards, in bits/s.
	// Set by BuildRouting.
	RelayBps float64 `json:"relay_bps"`
	// Draw is the sensor's total power draw in watts. Set by BuildRouting.
	Draw float64 `json:"draw"`
}

// Network is a complete WRSN: field geometry, base station, charger depot,
// charger characteristics and the sensor population.
type Network struct {
	// Field is the monitoring area (paper: 100 x 100 m^2).
	Field geom.Rect `json:"field"`
	// Base is the base station position (paper: field center).
	Base geom.Point `json:"base"`
	// Depot is the MCV depot position (paper: co-located with the base).
	Depot geom.Point `json:"depot"`
	// TxRange is the sensor radio transmission range in meters.
	TxRange float64 `json:"tx_range"`
	// Gamma is the chargers' wireless charging radius (paper: 2.7 m).
	Gamma float64 `json:"gamma"`
	// ChargeRate is eta, the charging rate in watts (paper: 2 W).
	ChargeRate float64 `json:"charge_rate"`
	// Speed is the charger travel speed in m/s (paper: 1 m/s).
	Speed float64 `json:"speed"`
	// Radio is the sensor energy consumption model.
	Radio energy.RadioModel `json:"radio"`
	// Sensors is the sensor population; Sensors[i].ID == i.
	Sensors []Sensor `json:"sensors"`
}

// Validate reports the first structural problem with the network, or nil.
// Every failure wraps ErrInvalidNetwork. Beyond range checks it rejects
// NaN/Inf geometry (positions, gamma, speed, rates) outright: a single NaN
// coordinate silently poisons every distance downstream and produces
// nonsense tours instead of an error.
func (nw *Network) Validate() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrInvalidNetwork, fmt.Sprintf(format, args...))
	}
	if !nw.Base.Finite() {
		return bad("base position %v is not finite", nw.Base)
	}
	if !nw.Depot.Finite() {
		return bad("depot position %v is not finite", nw.Depot)
	}
	if !nw.Field.Min.Finite() || !nw.Field.Max.Finite() {
		return bad("field %v is not finite", nw.Field)
	}
	if nw.TxRange <= 0 || !geom.Finite(nw.TxRange) {
		return bad("tx range = %v, want finite > 0", nw.TxRange)
	}
	if nw.Gamma < 0 || !geom.Finite(nw.Gamma) {
		return bad("gamma = %v, want finite >= 0", nw.Gamma)
	}
	if nw.ChargeRate <= 0 || !geom.Finite(nw.ChargeRate) {
		return bad("charge rate = %v, want finite > 0", nw.ChargeRate)
	}
	if nw.Speed <= 0 || !geom.Finite(nw.Speed) {
		return bad("speed = %v, want finite > 0", nw.Speed)
	}
	if err := nw.Radio.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidNetwork, err)
	}
	seen := make(map[int]bool, len(nw.Sensors))
	for i := range nw.Sensors {
		s := &nw.Sensors[i]
		if seen[s.ID] {
			return bad("duplicate sensor ID %d at index %d", s.ID, i)
		}
		seen[s.ID] = true
		if s.ID != i {
			return bad("sensor %d has ID %d, want IDs to match indices", i, s.ID)
		}
		if !s.Pos.Finite() {
			return bad("sensor %d position %v is not finite", i, s.Pos)
		}
		if s.DataRate < 0 || !geom.Finite(s.DataRate) {
			return bad("sensor %d data rate = %v, want finite >= 0", i, s.DataRate)
		}
		if err := s.Battery.Validate(); err != nil {
			return fmt.Errorf("%w: sensor %d: %v", ErrInvalidNetwork, i, err)
		}
	}
	return nil
}

// Positions returns all sensor locations in ID order.
func (nw *Network) Positions() []geom.Point {
	pts := make([]geom.Point, len(nw.Sensors))
	for i := range nw.Sensors {
		pts[i] = nw.Sensors[i].Pos
	}
	return pts
}

// BuildRouting computes the shortest-path routing tree toward the base
// station over the communication graph (sensors within TxRange of each
// other; sensors within TxRange of the base station uplink directly) and
// derives each sensor's relay load and power draw. Sensors disconnected
// from the base station fall back to a direct (long-range, expensive)
// uplink, so every sensor always has a defined draw.
func (nw *Network) BuildRouting() {
	n := len(nw.Sensors)
	if n == 0 {
		return
	}
	pts := nw.Positions()
	grid := geom.NewGrid(pts, nw.TxRange)

	// Dijkstra from the (virtual) base station. dist[i] is the shortest
	// path length from sensor i to the base.
	dist := make([]float64, n)
	parent := make([]int, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		parent[i] = -2 // unreached
	}
	pq := &distHeap{}
	var seedBuf []int
	seedBuf = grid.Neighbors(nw.Base, nw.TxRange, seedBuf)
	for _, i := range seedBuf {
		d := geom.Dist(nw.Base, pts[i])
		dist[i] = d
		parent[i] = -1
		heap.Push(pq, distItem{v: i, d: d})
	}
	settled := make([]bool, n)
	var buf []int
	for pq.Len() > 0 {
		it := heap.Pop(pq).(distItem)
		if settled[it.v] {
			continue
		}
		settled[it.v] = true
		buf = grid.NeighborsOf(it.v, nw.TxRange, buf)
		for _, w := range buf {
			if settled[w] {
				continue
			}
			nd := it.d + geom.Dist(pts[it.v], pts[w])
			if nd < dist[w] {
				dist[w] = nd
				parent[w] = it.v
				heap.Push(pq, distItem{v: w, d: nd})
			}
		}
	}
	// Disconnected sensors: direct uplink to the base.
	for i := range nw.Sensors {
		if parent[i] == -2 {
			parent[i] = -1
		}
		nw.Sensors[i].Parent = parent[i]
	}

	// Relay loads: process sensors in decreasing distance so children are
	// accumulated before parents. Direct-uplink sensors have dist set to
	// their base distance for ordering purposes.
	order := make([]int, n)
	for i := range order {
		order[i] = i
		if math.IsInf(dist[i], 1) {
			dist[i] = geom.Dist(pts[i], nw.Base)
		}
	}
	sortByDistDesc(order, dist)
	relay := make([]float64, n)
	for _, v := range order {
		total := nw.Sensors[v].DataRate + relay[v]
		if p := nw.Sensors[v].Parent; p >= 0 {
			relay[p] += total
		}
	}
	for i := range nw.Sensors {
		s := &nw.Sensors[i]
		s.RelayBps = relay[i]
		pd := nw.parentDist(i)
		s.Draw = nw.Radio.Draw(s.DataRate, s.RelayBps, pd)
	}
}

// parentDist returns the distance from sensor i to its routing parent (the
// base station when Parent is -1).
func (nw *Network) parentDist(i int) float64 {
	s := nw.Sensors[i]
	if s.Parent < 0 {
		return geom.Dist(s.Pos, nw.Base)
	}
	return geom.Dist(s.Pos, nw.Sensors[s.Parent].Pos)
}

// TotalDraw returns the network's aggregate power draw in watts.
func (nw *Network) TotalDraw() float64 {
	total := 0.0
	for i := range nw.Sensors {
		total += nw.Sensors[i].Draw
	}
	return total
}

// Requests returns the IDs of sensors whose residual energy is strictly
// below threshold (a fraction of capacity) — the lifetime-critical set V_s.
func (nw *Network) Requests(threshold float64) []int {
	var out []int
	for i := range nw.Sensors {
		if nw.Sensors[i].Battery.Fraction() < threshold {
			out = append(out, i)
		}
	}
	return out
}

// sortByDistDesc sorts idx in place by decreasing dist value.
func sortByDistDesc(idx []int, dist []float64) {
	sort.Slice(idx, func(a, b int) bool { return dist[idx[a]] > dist[idx[b]] })
}

type distItem struct {
	v int
	d float64
}

type distHeap struct{ items []distItem }

func (h *distHeap) Len() int           { return len(h.items) }
func (h *distHeap) Less(i, j int) bool { return h.items[i].d < h.items[j].d }
func (h *distHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *distHeap) Push(x interface{}) { h.items = append(h.items, x.(distItem)) }
func (h *distHeap) Pop() interface{} {
	old := h.items
	n := len(old)
	it := old[n-1]
	h.items = old[:n-1]
	return it
}
