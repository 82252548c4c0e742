// Citygrid: a smart-city air-quality deployment — sensors on a regular
// street-grid lattice — comparing every registered scheduling algorithm on a
// single dense charging round and then over a three-month simulation.
//
// The example shows (1) building an Instance by hand from an existing
// network snapshot, (2) the one-to-one baselines against multi-node Appro
// on the same request set, and (3) that the verifier holds every algorithm
// to the problem's constraints.
//
// Run with:
//
//	go run ./examples/citygrid
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/internal/geom"
)

func main() {
	// A 20x20 lattice of intersections, 2.5 m apart (dense enough that one
	// charger stop covers several sensors with gamma = 2.7 m). Every
	// sensor has requested charging; durations vary with how depleted
	// each battery is.
	in := &repro.Instance{
		Depot: geom.Pt(23.75, 23.75),
		Gamma: 2.7,
		Speed: 1,
		K:     2,
	}
	for row := 0; row < 20; row++ {
		for col := 0; col < 20; col++ {
			depletion := 0.8 + 0.2*float64((row*20+col)%5)/5 // 80-100% depleted
			in.Requests = append(in.Requests, repro.Request{
				Pos:      geom.Pt(float64(col)*2.5, float64(row)*2.5),
				Duration: depletion * 10800 / 2, // t_v = depleted J / 2 W
				Lifetime: float64(1+(row+col)%7) * 86400,
			})
		}
	}

	fmt.Printf("city grid: %d requesting sensors, K=%d chargers\n\n", len(in.Requests), in.K)
	fmt.Println("algorithm  longest delay (h)  stops  verified")
	for _, p := range repro.Planners() {
		s, err := p.Plan(context.Background(), in)
		if err != nil {
			log.Fatalf("%s: %v", p.Name(), err)
		}
		// One-to-one baselines are held to point-charging semantics; the
		// multi-node Appro schedule must additionally satisfy the
		// no-simultaneous-charging constraint.
		verdict := "OK"
		if vs := repro.VerifyScheme(in, s); len(vs) > 0 {
			verdict = vs[0].String()
		}
		fmt.Printf("%-9s  %17.2f  %5d  %s\n", p.Name(), s.Longest/3600, s.NumStops(), verdict)
	}

	// Long-run behavior on the same lattice as a routed network.
	params := repro.NewNetworkParams(400)
	params.Clusters = 0
	nw, err := repro.GenerateNetwork(params, 7)
	if err != nil {
		log.Fatal(err)
	}
	// Overwrite the generator's uniform positions with the lattice.
	for i := range nw.Sensors {
		nw.Sensors[i].Pos = geom.Pt(float64(i%20)*2.5, float64(i/20)*2.5)
	}
	nw.BuildRouting() // recompute routes and draws for the new geometry

	fmt.Println("\n90-day simulation on the lattice:")
	fmt.Println("algorithm  avg longest tour (h)  dead/sensor (min)")
	for _, p := range repro.Planners() {
		res, err := repro.Simulate(context.Background(), nw, 2, p, repro.SimConfig{
			Duration:    90 * 86400,
			BatchWindow: repro.DefaultBatchWindow,
			Verify:      true,
		})
		if err != nil {
			log.Fatalf("%s: %v", p.Name(), err)
		}
		if res.Violations != 0 {
			log.Fatalf("%s: %d feasibility violations", p.Name(), res.Violations)
		}
		fmt.Printf("%-9s  %20.2f  %17.1f\n", p.Name(), res.AvgLongest/3600, res.AvgDeadPerSensor/60)
	}
}
