package export_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/export"
	"repro/internal/registry"
	"repro/internal/workload"
)

// referenceSchedule is the reflective encoding AppendSchedule replaced,
// kept as its oracle.
func referenceSchedule(s *core.Schedule) ([]byte, error) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	err := enc.Encode(s)
	return b.Bytes(), err
}

// checkScheduleMatchesEncodingJSON fails t unless WriteSchedule writes
// the reference's bytes, or both fail; on failure WriteSchedule must
// write nothing and AppendSchedule must leave dst as it was.
func checkScheduleMatchesEncodingJSON(t *testing.T, s *core.Schedule) {
	t.Helper()
	want, wantErr := referenceSchedule(s)
	var got bytes.Buffer
	err := export.WriteSchedule(&got, s)
	switch {
	case (err == nil) != (wantErr == nil):
		t.Fatalf("%+v: error %v, encoding/json error %v", s, err, wantErr)
	case err != nil:
		if got.Len() != 0 {
			t.Fatalf("%+v: wrote %q before failing", s, got.Bytes())
		}
		prefix := []byte("kept")
		if b, _ := export.AppendSchedule(prefix, s); string(b) != "kept" {
			t.Fatalf("%+v: AppendSchedule left %q on error", s, b)
		}
	case !bytes.Equal(got.Bytes(), want):
		t.Fatalf("%+v:\ngot  %q\nwant %q", s, got.Bytes(), want)
	}
}

// TestWriteScheduleMatchesEncodingJSON compares the encoders on every
// registered planner's plan and on the float, nil and omitempty edges.
func TestWriteScheduleMatchesEncodingJSON(t *testing.T) {
	in := workload.RequestSet(250, 3, 1, 0)
	for _, name := range registry.Names() {
		p, err := registry.New(name, nil)
		if err != nil {
			t.Fatal(err)
		}
		s, err := p.Plan(context.Background(), in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkScheduleMatchesEncodingJSON(t, s)
	}

	edges := []float64{
		0, math.Copysign(0, -1), 5e-324, -5e-324, 9.99e-7, 1e-6, -1e-7, 1.5e-10, 0.1, 123.456,
		9.99e20, 1e21, -1e21, 1e100, math.MaxFloat64, -math.MaxFloat64,
	}
	for _, f := range edges {
		checkScheduleMatchesEncodingJSON(t, schedule(f, f, f, f, f, 0))
	}
	for shape := 0; shape < 1<<5; shape++ {
		checkScheduleMatchesEncodingJSON(t, schedule(1, 2, 3, 4, float64(shape%3), shape))
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for field := 0; field < 5; field++ {
			fs := []float64{1, 2, 3, 4, 5}
			fs[field] = bad
			checkScheduleMatchesEncodingJSON(t, schedule(fs[0], fs[1], fs[2], fs[3], fs[4], 0))
		}
	}
}

func FuzzWriteScheduleMatchesEncodingJSON(f *testing.F) {
	f.Add(1.5, 2.0, 3e-7, 4e21, 0.0, 0)
	f.Add(math.Copysign(0, -1), 5e-324, 9.99e20, math.MaxFloat64, 1.0, 7)
	f.Add(math.NaN(), 1.0, 1.0, 1.0, 1.0, 31)
	f.Fuzz(func(t *testing.T, arrive, duration, delay, longest, wait float64, shape int) {
		checkScheduleMatchesEncodingJSON(t, schedule(arrive, duration, delay, longest, wait, shape))
	})
}

// schedule builds a two-tour schedule carrying the given times; the low
// five bits of shape make Tours, Stops and Covers nil or empty and vary
// the node and cover numbers.
func schedule(arrive, duration, delay, longest, wait float64, shape int) *core.Schedule {
	stop := core.Stop{Node: shape, Arrive: arrive, Duration: duration, Covers: []int{shape, -1, 1 << 40}}
	switch {
	case shape&1 != 0:
		stop.Covers = nil
	case shape&2 != 0:
		stop.Covers = []int{}
	}
	tours := []core.Tour{{Stops: []core.Stop{stop, stop}, Delay: delay}, {Delay: delay}}
	switch {
	case shape&4 != 0:
		tours[1].Stops = []core.Stop{}
	case shape&8 != 0:
		tours = tours[:1]
	}
	s := &core.Schedule{Tours: tours, Longest: longest, WaitTime: wait}
	if shape&16 != 0 {
		s.Tours = nil
		if shape&1 != 0 {
			s.Tours = []core.Tour{}
		}
	}
	return s
}
