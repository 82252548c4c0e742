package repro_test

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/internal/geom"
)

// ExamplePlanAppro plans one batch of charging requests with the paper's
// algorithm and verifies the schedule.
func ExamplePlanAppro() {
	in := &repro.Instance{
		Depot: geom.Pt(0, 0),
		Gamma: 2.7,
		Speed: 1,
		K:     2,
		Requests: []repro.Request{
			{Pos: geom.Pt(10, 0), Duration: 100},
			{Pos: geom.Pt(11, 0), Duration: 150}, // within gamma of the first
			{Pos: geom.Pt(-10, 0), Duration: 120},
		},
	}
	sched, err := repro.PlanAppro(context.Background(), in)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stops: %d (multi-node consolidation covered 2 sensors at once)\n", sched.NumStops())
	fmt.Printf("feasible: %v\n", len(repro.Verify(in, sched)) == 0)
	// Output:
	// stops: 2 (multi-node consolidation covered 2 sensors at once)
	// feasible: true
}

// ExampleNewPlanner shows how to select algorithms by their paper names.
func ExampleNewPlanner() {
	for _, name := range []string{"Appro", "K-minMax"} {
		p, err := repro.NewPlanner(name)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(p.Name())
	}
	// Output:
	// Appro
	// K-minMax
}

// ExampleComputeLowerBound bounds a schedule's approximation factor.
func ExampleComputeLowerBound() {
	in := &repro.Instance{
		Depot: geom.Pt(0, 0),
		Gamma: 2.7,
		Speed: 1,
		K:     1,
		Requests: []repro.Request{
			{Pos: geom.Pt(30, 40), Duration: 600},
		},
	}
	sched, err := repro.PlanAppro(context.Background(), in)
	if err != nil {
		log.Fatal(err)
	}
	lb := repro.ComputeLowerBound(in)
	fmt.Printf("factor <= %.2f\n", sched.Longest/lb.Value)
	// Output:
	// factor <= 1.01
}

// ExampleGenerateNetwork builds a paper-parameter WRSN and reads its
// aggregate charging demand.
func ExampleGenerateNetwork() {
	nw, err := repro.GenerateNetwork(repro.NewNetworkParams(100), 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sensors: %d, base at field center: %v\n",
		len(nw.Sensors), nw.Base == nw.Field.Center())
	// Output:
	// sensors: 100, base at field center: true
}
