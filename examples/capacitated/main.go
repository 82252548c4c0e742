// Capacitated: drop the paper's "charger has sufficient energy per tour"
// assumption. Plan a dense round with Appro, then split each tour into
// battery-feasible depot-returning trips for chargers with a 2 MJ battery,
// and compare against provable lower bounds on the uncapacitated optimum.
//
// Run with:
//
//	go run ./examples/capacitated
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro"
	"repro/internal/geom"
)

func main() {
	// 350 requesting sensors with the paper's parameters.
	rng := rand.New(rand.NewSource(11))
	in := &repro.Instance{
		Depot: geom.Pt(50, 50),
		Gamma: 2.7,
		Speed: 1,
		K:     3,
	}
	for i := 0; i < 350; i++ {
		in.Requests = append(in.Requests, repro.Request{
			Pos:      geom.Pt(rng.Float64()*100, rng.Float64()*100),
			Duration: (1.2 + 0.3*rng.Float64()) * 3600,
		})
	}

	sched, err := repro.PlanAppro(context.Background(), in)
	if err != nil {
		log.Fatal(err)
	}
	if v := repro.Verify(in, sched); len(v) > 0 {
		log.Fatalf("infeasible: %v", v[0])
	}
	fmt.Printf("uncapacitated plan: %d stops, longest delay %.2f h\n",
		sched.NumStops(), sched.Longest/3600)

	// How good is the plan? Compare against the provable lower bound.
	lb := repro.ComputeLowerBound(in)
	fmt.Printf("lower bound on optimum: %.2f h -> approximation factor <= %.2f\n",
		lb.Value/3600, sched.Longest/lb.Value)

	// Now give every charger a finite battery. eta = 2 W as in the paper;
	// the charger drives at ~30 J/m and transfers at 50%% efficiency.
	params := repro.ChargerParams{
		CapacityJ:          2e6,
		MoveJPerM:          30,
		TransferEfficiency: 0.5,
		TurnaroundS:        1800, // 30 min battery swap at the depot
	}
	plan, err := repro.SplitCapacitated(context.Background(), in, sched, 2, params)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncapacitated (%.1f MJ battery, %.0f%% transfer efficiency):\n",
		params.CapacityJ/1e6, params.TransferEfficiency*100)
	for k, trips := range plan.Chargers {
		fmt.Printf("  charger %d: %d trips\n", k+1, len(trips))
		for i, trip := range trips {
			fmt.Printf("    trip %d: %2d stops, %.2f h, %.2f MJ\n",
				i+1, len(trip.Tour.Stops), trip.Tour.Delay/3600, trip.EnergyJ/1e6)
		}
	}
	fmt.Printf("completion time: %.2f h (vs %.2f h uncapacitated, +%.0f%%)\n",
		plan.Longest/3600, sched.Longest/3600,
		100*(plan.Longest-sched.Longest)/sched.Longest)
	fmt.Printf("total charger energy: %.1f MJ across %d trips\n",
		plan.TotalEnergyJ/1e6, plan.Trips)
}
