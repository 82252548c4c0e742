// Quickstart: plan charging tours for a batch of lifetime-critical sensors
// with the paper's Algorithm Appro, verify the schedule, and print it.
//
// Run with:
//
//	go run ./examples/quickstart
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
	// A request set V_s: 120 sensors that asked to be charged, scattered
	// over the paper's 100 x 100 m field. Each needs 1.2-1.5 h of
	// charging (they requested at ~20% residual capacity, eta = 2 W).
	rng := rand.New(rand.NewSource(42))
	in := &repro.Instance{
		Depot: geom.Pt(50, 50), // MCV depot at the field center
		Gamma: 2.7,             // multi-node charging radius (m)
		Speed: 1,               // charger travel speed (m/s)
		K:     3,               // three mobile chargers
	}
	for i := 0; i < 120; i++ {
		in.Requests = append(in.Requests, repro.Request{
			Pos:      geom.Pt(rng.Float64()*100, rng.Float64()*100),
			Duration: (1.2 + 0.3*rng.Float64()) * 3600,
		})
	}

	// Plan with Algorithm Appro. PlanAppro also executes the plan, so the
	// returned times respect the hard constraint that no sensor is ever
	// charged by two chargers at once.
	sched, err := repro.PlanAppro(context.Background(), in)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("planned %d requests with %d stops across %d chargers\n",
		len(in.Requests), sched.NumStops(), in.K)
	for k, tour := range sched.Tours {
		fmt.Printf("charger %d: %2d stops, tour delay %.2f h\n",
			k+1, len(tour.Stops), tour.Delay/3600)
	}
	fmt.Printf("longest charge delay (objective): %.2f h\n", sched.Longest/3600)

	// Independently verify coverage, tour disjointness, travel-time
	// consistency and the no-simultaneous-charging constraint.
	if violations := repro.Verify(in, sched); len(violations) > 0 {
		log.Fatalf("infeasible schedule: %v", violations[0])
	}
	fmt.Println("schedule verified: feasible")
}
