// Package obs is the planning engine's lightweight observability layer: a
// stage tracer and metrics registry carried through context.Context.
//
// A *Tracer aggregates named stage spans (count + total duration) and
// monotonic counters. It is attached to a context with WithTracer and
// recovered with FromContext; every recording method is safe on a nil
// receiver, so instrumented hot paths pay only a nil check — no
// allocation, no clock read — when tracing is disabled. Span handles are
// plain values, so an enabled span costs two time.Now calls and one
// mutex-guarded map update, with no per-span heap allocation.
//
// The planning stack records a small, stable span vocabulary (see the
// Stage* constants): the paper's Algorithm Appro records charging-graph,
// mis, kminmax and insertion; the conflict-aware executor records execute;
// the simulator records verify around its per-round feasibility checks,
// and the scaling ladder and wrsn-plan's text mode record verify and
// lowerbound around the check of each plan.
// The planning stage timings therefore partition a plan's runtime: summed,
// they account for approximately the total planning time.
package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Canonical stage names recorded by the planning stack. Downstream
// consumers (wrsn-bench -trace-json, DESIGN.md) rely on these being
// stable.
const (
	// StageChargingGraph covers building the charging graph G_c, the
	// auxiliary graph H, and the coverage sets N_c+(v).
	StageChargingGraph = "charging-graph"
	// StageMIS covers the maximal-independent-set computations on G_c
	// and H.
	StageMIS = "mis"
	// The mis/* spans are sub-stages nested INSIDE the mis span when a
	// degree-ordered strategy runs — they attribute its time to the
	// extreme-degree vertex selection (bucket-queue pops) versus the
	// residual-degree bookkeeping after each removal, and must not be
	// added to the top-level stages when summing a plan's runtime.
	StageMISSelect = "mis/select"
	StageMISUpdate = "mis/update"
	// StageKMinMax covers the K-minMax closed-tour subroutine.
	StageKMinMax = "kminmax"
	// StageInsertion covers Algorithm 1's pending-candidate insertion
	// loop (steps 6-24).
	StageInsertion = "insertion"
	// The kminmax/* spans are per-kernel sub-stages nested INSIDE the
	// kminmax span — they attribute its time to the grand tour's MST, the
	// 2-opt descents (the grand tour's and each split tour's balance pass)
	// and the tour-splitting search, and therefore must not be added to
	// the top-level stages when summing a plan's runtime.
	StageKMinMaxMST    = "kminmax/mst"
	StageKMinMaxTwoOpt = "kminmax/2opt"
	StageKMinMaxSplit  = "kminmax/split"
	// StageExecute covers the conflict-aware schedule executor.
	StageExecute = "execute"
	// StageVerify covers the independent feasibility verifier.
	StageVerify = "verify"
	// StageLowerBound covers the lower bound on the optimum that a plan's
	// quality gap is measured against.
	StageLowerBound = "lowerbound"
)

// KnownStages returns the canonical span vocabulary above — top-level
// stages followed by the nested mis/* and kminmax/* sub-spans — in display
// order. Consumers that accept stage names from users (wrsn-bench's
// -budget assertions) validate against this list so a typo'd stage fails
// loudly instead of silently never matching a recorded span.
func KnownStages() []string {
	return []string{
		StageChargingGraph,
		StageMIS, StageMISSelect, StageMISUpdate,
		StageKMinMax, StageKMinMaxMST, StageKMinMaxTwoOpt, StageKMinMaxSplit,
		StageInsertion,
		StageExecute,
		StageVerify,
		StageLowerBound,
	}
}

type ctxKey struct{}

// WithTracer returns a context carrying the tracer. A nil tracer returns
// ctx unchanged.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the tracer carried by ctx, or nil when tracing is
// disabled. The nil result is directly usable: every Tracer method is a
// no-op on a nil receiver.
func FromContext(ctx context.Context) *Tracer {
	t, _ := ctx.Value(ctxKey{}).(*Tracer)
	return t
}

// stage aggregates one span name's recordings.
type stage struct {
	count int64
	total time.Duration
}

// Tracer aggregates stage spans and counters. It is safe for concurrent
// use; all methods are no-ops on a nil receiver.
type Tracer struct {
	mu       sync.Mutex
	started  time.Time
	stages   map[string]*stage
	order    []string // stage names in first-recorded order
	counters map[string]int64
	corder   []string // counter names in first-recorded order
}

// New returns an empty tracer; its Report total runs from this moment.
func New() *Tracer {
	return &Tracer{
		started:  time.Now(),
		stages:   make(map[string]*stage),
		counters: make(map[string]int64),
	}
}

// Span is an in-flight stage recording. The zero value (from a nil
// tracer) is a no-op.
type Span struct {
	t     *Tracer
	name  string
	start time.Time
}

// Start opens a span. End it with Span.End; un-ended spans record
// nothing.
func (t *Tracer) Start(name string) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, name: name, start: time.Now()}
}

// End closes the span, folding its duration into the tracer's aggregate
// for the span's name.
func (s Span) End() {
	if s.t == nil {
		return
	}
	s.t.Observe(s.name, time.Since(s.start))
}

// Observe folds an externally measured duration into the named stage.
func (t *Tracer) Observe(name string, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	st := t.stages[name]
	if st == nil {
		st = &stage{}
		t.stages[name] = st
		t.order = append(t.order, name)
	}
	st.count++
	st.total += d
	t.mu.Unlock()
}

// Add increments the named counter by delta.
func (t *Tracer) Add(name string, delta int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if _, ok := t.counters[name]; !ok {
		t.corder = append(t.corder, name)
	}
	t.counters[name] += delta
	t.mu.Unlock()
}

// StageTiming is one stage's aggregate in a Report.
type StageTiming struct {
	// Name is the span name, e.g. "insertion".
	Name string `json:"name"`
	// Count is how many spans were recorded under the name.
	Count int64 `json:"count"`
	// Seconds is the total recorded duration.
	Seconds float64 `json:"seconds"`
}

// Report is a tracer snapshot, shaped for JSON export (the -trace-json
// output of wrsn-bench and wrsn-plan).
type Report struct {
	// TotalSeconds is the wall time since the tracer was created.
	TotalSeconds float64 `json:"total_seconds"`
	// Stages lists per-stage aggregates in first-recorded order. On a
	// single sequential plan they sum to approximately TotalSeconds;
	// under concurrent workers they sum to total CPU-side stage time,
	// which can exceed the wall total.
	Stages []StageTiming `json:"stages"`
	// Counters holds the monotonic counters.
	Counters map[string]int64 `json:"counters,omitempty"`
}

// Report snapshots the tracer. Safe on a nil receiver (returns a zero
// report).
func (t *Tracer) Report() Report {
	if t == nil {
		return Report{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	r := Report{TotalSeconds: time.Since(t.started).Seconds()}
	for _, name := range t.order {
		st := t.stages[name]
		r.Stages = append(r.Stages, StageTiming{Name: name, Count: st.count, Seconds: st.total.Seconds()})
	}
	if len(t.counters) > 0 {
		r.Counters = make(map[string]int64, len(t.counters))
		for _, name := range t.corder {
			r.Counters[name] = t.counters[name]
		}
	}
	return r
}

// StageSeconds returns the named stage's total recorded seconds (zero if
// never recorded or the tracer is nil).
func (t *Tracer) StageSeconds(name string) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if st := t.stages[name]; st != nil {
		return st.total.Seconds()
	}
	return 0
}

// WriteJSON writes the report as indented JSON.
func (t *Tracer) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t.Report())
}

// Progress is a serialized progress sink: concurrent workers call Emit
// and the wrapped function observes the calls one at a time, in some
// order. A nil *Progress and a nil wrapped function are both valid and
// drop every message.
type Progress struct {
	mu sync.Mutex
	fn func(string)
}

// NewProgress wraps fn; nil fn yields a sink that drops messages.
func NewProgress(fn func(string)) *Progress {
	return &Progress{fn: fn}
}

// Emit formats and forwards one progress line under the sink's lock.
func (p *Progress) Emit(format string, args ...any) {
	if p == nil || p.fn == nil {
		return
	}
	msg := fmt.Sprintf(format, args...)
	p.mu.Lock()
	p.fn(msg)
	p.mu.Unlock()
}
