package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro"
	"repro/internal/export"
	"repro/internal/obs"
	"repro/internal/workload"
)

// TestBuildInstanceShape checks the request set wrsn-plan builds, the
// one workload.RequestSet shared with wrsn-bench -scaling.
func TestBuildInstanceShape(t *testing.T) {
	in := workload.RequestSet(50, 3, 7, 100)
	if len(in.Requests) != 50 || in.K != 3 || in.Gamma != 2.7 {
		t.Fatalf("instance shape wrong: %d requests K=%d", len(in.Requests), in.K)
	}
	for i, r := range in.Requests {
		if r.Duration < 1.2*3600 || r.Duration > 1.5*3600 {
			t.Fatalf("request %d duration %v outside [1.2h, 1.5h]", i, r.Duration)
		}
		if r.Lifetime <= 0 {
			t.Fatalf("request %d without lifetime", i)
		}
	}
	// Deterministic per seed, and side <= 0 means the paper's field.
	again := workload.RequestSet(50, 3, 7, 0)
	if again.Requests[0].Pos != in.Requests[0].Pos || again.Depot != in.Depot {
		t.Error("RequestSet not deterministic")
	}
}

func TestRunSingleAndCompare(t *testing.T) {
	if err := run(context.Background(), 60, 2, "Appro", 1, 100, repro.ApproOptions{}, "", "", false, false, ""); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), 40, 2, "", 1, 100, repro.ApproOptions{}, "", "", true, false, ""); err != nil {
		t.Fatal(err)
	}
}

// TestRunTracesTheCheck runs text mode under a tracer: the plan's check
// is reported under the verify and lowerbound stages, once each.
func TestRunTracesTheCheck(t *testing.T) {
	tracer := repro.NewTracer()
	ctx := repro.WithTracer(context.Background(), tracer)
	if err := run(ctx, 60, 2, "Appro", 1, 100, repro.ApproOptions{}, "", "", false, false, ""); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int64{}
	for _, st := range tracer.Report().Stages {
		counts[st.Name] = st.Count
	}
	for _, stage := range []string{obs.StageVerify, obs.StageLowerBound} {
		if counts[stage] != 1 {
			t.Errorf("stage %q recorded %d times, want 1 (stages %v)", stage, counts[stage], counts)
		}
	}
}

func TestRunWritesSVG(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tours.svg")
	if err := run(context.Background(), 30, 2, "Appro", 1, 100, repro.ApproOptions{}, path, "", false, false, ""); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "<svg") {
		t.Error("output is not SVG")
	}
}

// TestJSONOutputRoundTrip checks the -json / -dump-instance pair: the
// dumped instance decodes back to exactly the generated one, and -json
// prints the canonical schedule encoding for it (what a wrsn-serve
// /v1/plan response body must match byte for byte).
func TestJSONOutputRoundTrip(t *testing.T) {
	instPath := filepath.Join(t.TempDir(), "inst.json")

	// Capture the schedule JSON that run(-json) writes to stdout.
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := run(context.Background(), 40, 2, "Appro", 1, 100, repro.ApproOptions{}, "", "", false, true, instPath)
	w.Close()
	os.Stdout = old
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatal(runErr)
	}

	// The dumped instance must decode to exactly the generated one.
	data, err := os.ReadFile(instPath)
	if err != nil {
		t.Fatal(err)
	}
	var decoded repro.Instance
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	want := workload.RequestSet(40, 2, 1, 100)
	if !reflect.DeepEqual(&decoded, want) {
		t.Fatal("dumped instance does not round-trip to the generated one")
	}

	// And the stdout JSON must be the canonical encoding of its plan.
	planner, err := repro.NewPlanner("Appro")
	if err != nil {
		t.Fatal(err)
	}
	s, err := planner.Plan(context.Background(), &decoded)
	if err != nil {
		t.Fatal(err)
	}
	var wantOut bytes.Buffer
	if err := export.WriteSchedule(&wantOut, s); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantOut.Bytes()) {
		t.Fatalf("-json output is not the canonical schedule encoding\ngot:  %.120s\nwant: %.120s", got, wantOut.Bytes())
	}
}

func TestRunUnknownPlanner(t *testing.T) {
	if err := run(context.Background(), 10, 1, "bogus", 1, 100, repro.ApproOptions{}, "", "", false, false, ""); err == nil {
		t.Error("unknown planner accepted")
	}
}

func TestRunWritesGantt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gantt.svg")
	if err := run(context.Background(), 30, 2, "Appro", 1, 100, repro.ApproOptions{}, "", path, false, false, ""); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "charger activity") {
		t.Error("output is not a Gantt chart")
	}
}
