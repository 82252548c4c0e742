package main

import (
	"context"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiments"
)

func tinyOpts() experiments.Options {
	return experiments.Options{Instances: 1, Duration: 3 * 86400}
}

func TestRunUnknownFigure(t *testing.T) {
	if err := run(context.Background(), "9", tinyOpts(), false, "", ""); err == nil {
		t.Error("unknown figure accepted")
	}
}

func TestRunFigure5WithSVG(t *testing.T) {
	dir := t.TempDir()
	if err := run(context.Background(), "5", tinyOpts(), false, dir, dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig5a.svg", "fig5b.svg"} {
		if _, err := filepath.Glob(filepath.Join(dir, name)); err != nil {
			t.Errorf("glob %s: %v", name, err)
		}
	}
}

func TestRunFigureCSV(t *testing.T) {
	if err := run(context.Background(), "4", tinyOpts(), true, "", ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunFigureFaults(t *testing.T) {
	if err := run(context.Background(), "F", tinyOpts(), true, "", ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunAblations(t *testing.T) {
	if err := run(context.Background(), "ablation", tinyOpts(), false, "", ""); err != nil {
		t.Fatal(err)
	}
}

// TestParseBudget is the regression table for the silently-passing budget
// bug: "-budget typo=30" used to parse fine and then never match a
// recorded span, asserting nothing. Unknown stage names are now a hard
// error naming the known vocabulary.
func TestParseBudget(t *testing.T) {
	cases := []struct {
		name    string
		in      string
		want    map[string]float64
		wantErr string
	}{
		{name: "empty", in: "", want: map[string]float64{}},
		{name: "blank-entries", in: " , ,", want: map[string]float64{}},
		{name: "single", in: "kminmax=30", want: map[string]float64{"kminmax": 30}},
		{name: "multi", in: "kminmax=30,mis=2.5", want: map[string]float64{"kminmax": 30, "mis": 2.5}},
		{name: "nested-spans", in: "mis/select=1,kminmax/mst=4", want: map[string]float64{"mis/select": 1, "kminmax/mst": 4}},
		{name: "spaces", in: " insertion=9 , execute=1 ", want: map[string]float64{"insertion": 9, "execute": 1}},
		{name: "checks", in: "verify=2,lowerbound=2", want: map[string]float64{"verify": 2, "lowerbound": 2}},
		{name: "unknown-stage", in: "typo=30", wantErr: `unknown -budget stage "typo"`},
		{name: "unknown-among-known", in: "kminmax=30,msi=2", wantErr: `unknown -budget stage "msi"`},
		{name: "case-sensitive", in: "MIS=2", wantErr: `unknown -budget stage "MIS"`},
		{name: "missing-equals", in: "kminmax", wantErr: "want stage=seconds"},
		{name: "bad-seconds", in: "mis=fast", wantErr: "bad -budget seconds"},
		{name: "zero-seconds", in: "mis=0", wantErr: "bad -budget seconds"},
		{name: "negative-seconds", in: "mis=-3", wantErr: "bad -budget seconds"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := parseBudget(tc.in)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("parseBudget(%q) error = %v, want containing %q", tc.in, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("parseBudget(%q): %v", tc.in, err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("parseBudget(%q) = %v, want %v", tc.in, got, tc.want)
			}
		})
	}
}

// TestRunScalingChecksEveryRung drives a small ladder end to end: every
// rung is planned, verified and bounded, and budgets on the verify and
// lowerbound spans are enforced like any planning stage's.
func TestRunScalingChecksEveryRung(t *testing.T) {
	if err := runScaling(context.Background(), "120,240", 2, 1, "verify=60,lowerbound=60", true); err != nil {
		t.Fatal(err)
	}
	err := runScaling(context.Background(), "120", 2, 1, "lowerbound=1e-12", true)
	if err == nil || !strings.Contains(err.Error(), "stage lowerbound took") {
		t.Fatalf("lowerbound budget breach not reported: %v", err)
	}
}
