package experiments

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunHonorsContext is the table-driven cancellation contract for the
// figure harness: a cancelled sweep returns promptly with an error wrapping
// the context sentinel, plus partial panels aggregating only the cells
// that completed.
func TestRunHonorsContext(t *testing.T) {
	tests := []struct {
		name   string
		preRun bool // cancel before Run instead of mid-run
		want   error
	}{
		{"pre-cancelled", true, context.Canceled},
		{"mid-run", false, context.Canceled},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			setGOMAXPROCS(t, 2)
			opt := fastOpts()
			var cells atomic.Int32
			if tt.preRun {
				cancel()
			} else {
				// Cancel as soon as the first cell completes; the
				// remaining ~24 cells must then be skipped.
				opt.Progress = func(string) {
					if cells.Add(1) == 1 {
						cancel()
					}
				}
			}
			start := time.Now()
			a, b, err := Run(ctx, "5", opt)
			if !errors.Is(err, tt.want) {
				t.Fatalf("err = %v, want errors.Is(..., %v)", err, tt.want)
			}
			if a == nil || b == nil {
				t.Fatal("cancelled sweep returned nil panels")
			}
			if len(a.Series) != 5 {
				t.Fatalf("series = %d, want all 5 algorithms present (empty where skipped)", len(a.Series))
			}
			if tt.preRun {
				for _, s := range a.Series {
					for i, y := range s.Y {
						if y != 0 {
							t.Fatalf("pre-cancelled sweep has data: series %s point %d = %v", s.Label, i, y)
						}
					}
				}
			}
			// Promptness: a full figure-5 sweep at these settings takes
			// far longer than the post-cancellation drain should.
			if el := time.Since(start); el > 2*time.Minute {
				t.Fatalf("cancelled sweep took %v", el)
			}
		})
	}
}

// TestRunDeadlinePartial drives the harness with a deadline that expires
// mid-sweep and checks the partial panels stay usable.
func TestRunDeadlinePartial(t *testing.T) {
	setGOMAXPROCS(t, 2)
	opt := fastOpts()
	// Size the sweep so it cannot finish inside the deadline (a full run
	// at these settings takes tens of seconds), guaranteeing the deadline
	// genuinely interrupts it.
	opt.Instances = 4
	opt.Duration = 180 * 86400
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	a, _, err := Run(ctx, "5", opt)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if a == nil || len(a.X) != 5 {
		t.Fatalf("partial panel malformed: %+v", a)
	}
}

// TestRunAblationHonorsContext covers the ablation paths.
func TestRunAblationHonorsContext(t *testing.T) {
	for _, id := range []string{AblationContender, AblationDispatch, AblationPartial} {
		t.Run(id, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			rows, err := RunAblation(ctx, id, fastOpts())
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if len(rows) != 0 {
				t.Fatalf("pre-cancelled ablation produced %d rows", len(rows))
			}
		})
	}
}

// TestProgressSerialized exercises the Progress callback from concurrent
// workers with a deliberately unsynchronized closure; `go test -race`
// fails this test if the harness ever invokes Progress concurrently.
func TestProgressSerialized(t *testing.T) {
	setGOMAXPROCS(t, 4)
	opt := fastOpts()
	var lines []string // no mutex on purpose: serialization is the contract
	opt.Progress = func(msg string) { lines = append(lines, msg) }
	a, _, err := Run(context.Background(), "5", opt)
	if err != nil {
		t.Fatal(err)
	}
	want := len(a.X) * len(a.Series) * opt.Instances
	if len(lines) != want {
		t.Fatalf("progress lines = %d, want %d", len(lines), want)
	}
	for _, l := range lines {
		if !strings.HasPrefix(l, "fig5 ") {
			t.Fatalf("unexpected progress line %q", l)
		}
	}
}
