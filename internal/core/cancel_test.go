package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"
)

// TestPlanHonorsContext is the table-driven cancellation contract test for
// the core planning entry points: a pre-cancelled or deadline-expired
// context must surface promptly as an error satisfying errors.Is against
// the matching context sentinel, and a healthy context must not.
func TestPlanHonorsContext(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	in := paperInstance(rng, 80, 2)

	tests := []struct {
		name string
		ctx  func() (context.Context, context.CancelFunc)
		want error
	}{
		{
			name: "pre-cancelled",
			ctx: func() (context.Context, context.CancelFunc) {
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				return ctx, func() {}
			},
			want: context.Canceled,
		},
		{
			name: "expired deadline",
			ctx: func() (context.Context, context.CancelFunc) {
				return context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
			},
			want: context.DeadlineExceeded,
		},
		{
			name: "healthy",
			ctx: func() (context.Context, context.CancelFunc) {
				return context.Background(), func() {}
			},
			want: nil,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			ctx, cancel := tt.ctx()
			defer cancel()

			s, err := Appro(ctx, in, Options{})
			checkCtxResult(t, "Appro", s == nil, err, tt.want)

			s, err = ApproPlanner{}.Plan(ctx, in)
			checkCtxResult(t, "ApproPlanner.Plan", s == nil, err, tt.want)

			a, err := Analyze(ctx, in)
			checkCtxResult(t, "Analyze", a == nil, err, tt.want)
		})
	}
}

func checkCtxResult(t *testing.T, fn string, resultNil bool, err, want error) {
	t.Helper()
	if want == nil {
		if err != nil {
			t.Fatalf("%s: unexpected error: %v", fn, err)
		}
		if resultNil {
			t.Fatalf("%s: nil result without error", fn)
		}
		return
	}
	if !errors.Is(err, want) {
		t.Fatalf("%s: err = %v, want errors.Is(..., %v)", fn, err, want)
	}
	if !resultNil {
		t.Fatalf("%s: non-nil result alongside %v", fn, want)
	}
}

// TestApproMidRunCancellation cancels while planning is in flight and
// checks Appro returns promptly. A fast machine may finish the plan before
// the cancel lands, so both a clean schedule and a context.Canceled error
// are acceptable — what is not acceptable is any other error, a partial
// schedule alongside an error, or failing to return at all.
func TestApproMidRunCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	in := paperInstance(rng, 1200, 2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type outcome struct {
		s   *Schedule
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		s, err := Appro(ctx, in, Options{})
		ch <- outcome{s, err}
	}()
	time.Sleep(2 * time.Millisecond)
	cancel()
	select {
	case o := <-ch:
		if o.err != nil {
			if !errors.Is(o.err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", o.err)
			}
			if o.s != nil {
				t.Fatal("partial schedule returned alongside cancellation error")
			}
		} else if o.s == nil {
			t.Fatal("nil schedule without error")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Appro did not return within 30s of cancellation")
	}
}
