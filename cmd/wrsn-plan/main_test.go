package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro"
	"repro/internal/obs"
	"repro/internal/serve"
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
	if err := run(context.Background(), 60, 2, "Appro", 1, 100, "", "", false, false, ""); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), 40, 2, "", 1, 100, "", "", true, false, ""); err != nil {
		t.Fatal(err)
	}
}

// TestRunTracesTheCheck runs text mode under a tracer: the plan's check
// is reported under the verify and lowerbound stages, once each.
func TestRunTracesTheCheck(t *testing.T) {
	tracer := repro.NewTracer()
	ctx := repro.WithTracer(context.Background(), tracer)
	if err := run(ctx, 60, 2, "Appro", 1, 100, "", "", false, false, ""); err != nil {
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
	if err := run(context.Background(), 30, 2, "Appro", 1, 100, path, "", false, false, ""); err != nil {
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

// TestJSONOutputRoundTrip checks the -json / -dump-instance pair for
// every registered planner: the dumped instance decodes back to exactly
// the generated one, and -json prints the bytes wrsn-serve's /v1/plan
// answers for that instance under ?planner= the same name.
func TestJSONOutputRoundTrip(t *testing.T) {
	srv := serve.New(serve.Config{})
	for _, name := range repro.PlannerNames() {
		t.Run(name, func(t *testing.T) {
			instPath := filepath.Join(t.TempDir(), "inst.json")

			// Capture the schedule JSON that run(-json) writes to stdout.
			got := captureStdout(t, func() error {
				return run(context.Background(), 40, 2, name, 1, 100, "", "", false, true, instPath)
			})

			// The dumped instance must decode to exactly the generated one.
			data, err := os.ReadFile(instPath)
			if err != nil {
				t.Fatal(err)
			}
			var decoded repro.Instance
			if err := json.Unmarshal(data, &decoded); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(&decoded, workload.RequestSet(40, 2, 1, 100)) {
				t.Fatal("dumped instance does not round-trip to the generated one")
			}

			// And the stdout JSON must be the service's answer to the
			// dumped body.
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost,
				"/v1/plan?planner="+url.QueryEscape(name), bytes.NewReader(data)))
			if rec.Code != http.StatusOK {
				t.Fatalf("/v1/plan: status %d: %s", rec.Code, rec.Body.Bytes())
			}
			if !bytes.Equal(got, rec.Body.Bytes()) {
				t.Fatalf("-json output differs from /v1/plan's answer\ngot:  %.120s\nwant: %.120s", got, rec.Body.Bytes())
			}
		})
	}
}

// captureStdout returns what f writes to stdout, failing the test when f
// fails. Its output must fit in a pipe buffer.
func captureStdout(t *testing.T, f func() error) []byte {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := f()
	w.Close()
	os.Stdout = old
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	return got
}

// TestRunPrintsGuaranteeForApproOnly checks that text mode prints
// Theorem 1's guarantee, which bounds Appro's plans, under Appro and not
// under a one-to-one planner.
func TestRunPrintsGuaranteeForApproOnly(t *testing.T) {
	for name, want := range map[string]bool{"Appro": true, "K-EDF": false} {
		out := captureStdout(t, func() error {
			return run(context.Background(), 300, 2, name, 1, 100, "", "", false, false, "")
		})
		if got := bytes.Contains(out, []byte("theoretical guarantee:")); got != want {
			t.Errorf("%s: guarantee line printed = %v, want %v\n%s", name, got, want, out)
		}
	}
}

func TestRunUnknownPlanner(t *testing.T) {
	if err := run(context.Background(), 10, 1, "bogus", 1, 100, "", "", false, false, ""); err == nil {
		t.Error("unknown planner accepted")
	}
}

func TestRunWritesGantt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gantt.svg")
	if err := run(context.Background(), 30, 2, "Appro", 1, 100, "", path, false, false, ""); err != nil {
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
