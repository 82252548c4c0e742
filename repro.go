// Package repro is the public API of this reproduction of "Minimizing the
// Longest Charge Delay of Multiple Mobile Chargers for Wireless
// Rechargeable Sensor Networks by Charging Multiple Sensors Simultaneously"
// (Xu, Liang, Kan, Xu, Zhang — IEEE ICDCS 2019).
//
// The package exposes, as thin aliases over the internal implementation:
//
//   - the problem vocabulary (Instance, Request, Schedule, Tour, Stop);
//   - the paper's Algorithm Appro (Appro, PlanAppro, NewApproPlanner) and
//     the conflict-aware executor and feasibility verifier (Execute,
//     Verify);
//   - the planner registry (internal/registry) resolving the paper's
//     four baselines and registered extensions by name or alias
//     (NewPlanner, NewPlannerWithOptions, Planners, PlannerNames);
//   - the WRSN world model and workload generator (Network, GenerateNetwork);
//   - the one-year evaluation simulator (Simulate, SimConfig) and the
//     figure harness (RunFigure) that regenerates the paper's Figures 3-5.
//
// Every planning and evaluation entry point takes a context.Context:
// cancelling it (or letting its deadline expire) aborts the computation
// promptly with an error wrapping ctx.Err(), and the simulator and figure
// harness additionally return the partial results accumulated up to that
// point. Attach a Tracer with WithTracer to collect per-stage wall-clock
// timings and counters; with no tracer attached the instrumentation is
// free.
//
// The batch entry points — RunFigure, PlanConcurrently and the BiLevel
// planner — fan out over GOMAXPROCS goroutines and merge results by index,
// so their output is byte-identical at any GOMAXPROCS; the GOMAXPROCS
// environment variable is their one parallelism setting. They keep no
// plan cache: the evaluation replans every round from the sensors' current
// residual energies, so it never plans one request set twice. Memoizing
// plans is the planning service's job (cmd/wrsn-serve).
//
// See the examples/ directory for runnable end-to-end programs and
// EXPERIMENTS.md for the paper-versus-measured record.
package repro

import (
	"context"
	"io"

	"repro/internal/capacitated"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/lowerbound"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/wrsn"
)

// Problem vocabulary (see internal/core for full documentation).
type (
	// Instance is one longest-charge-delay minimization problem.
	Instance = core.Instance
	// Request is one to-be-charged sensor in V_s.
	Request = core.Request
	// Schedule is a complete K-tour solution.
	Schedule = core.Schedule
	// Tour is one charger's closed tour.
	Tour = core.Tour
	// Stop is one sojourn of a charger.
	Stop = core.Stop
	// Violation is a feasibility defect found by Verify.
	Violation = core.Violation
	// Planner plans charging tours for an instance.
	Planner = core.Planner
	// PlannerOptions carries the planner options for
	// NewPlannerWithOptions: Seed, which only the seeded BiLevel reads.
	PlannerOptions = core.Options
)

// World model and evaluation (see internal/wrsn, internal/sim,
// internal/workload, internal/experiments).
type (
	// Network is a complete wireless rechargeable sensor network.
	Network = wrsn.Network
	// Sensor is one stationary rechargeable sensor.
	Sensor = wrsn.Sensor
	// NetworkParams parameterizes the workload generator.
	NetworkParams = workload.Params
	// SimConfig controls a simulation run.
	SimConfig = sim.Config
	// SimResult aggregates one simulation run.
	SimResult = sim.Result
	// ExperimentOptions configures the figure harness.
	ExperimentOptions = experiments.Options
	// FigureResult is a regenerated evaluation figure.
	FigureResult = experiments.Figure
)

// DispatchMode selects the simulator's dispatch protocol.
type DispatchMode = sim.DispatchMode

// Dispatch protocols for SimConfig.Dispatch.
const (
	// DispatchSynchronized is the paper's round-based protocol (default).
	DispatchSynchronized = sim.DispatchSynchronized
	// DispatchIndependent lets each charger redispatch on its own while
	// staying safe against simultaneous charging.
	DispatchIndependent = sim.DispatchIndependent
)

// Year is the paper's one-year monitoring period T_M, in seconds.
const Year = sim.Year

// DefaultBatchWindow is the dispatch batching window used by the figure
// harness (24 hours).
const DefaultBatchWindow = sim.DefaultBatchWindow

// Observability (see internal/obs). A Tracer attached to the context via
// WithTracer collects per-stage wall-clock timings (charging-graph, mis,
// kminmax, insertion, execute, verify) and named counters from every
// planning and simulation entry point; when no tracer is attached the
// instrumentation is free.
type (
	// Tracer aggregates stage timings and counters for one run.
	Tracer = obs.Tracer
	// TraceReport is a tracer's aggregated, serializable snapshot.
	TraceReport = obs.Report
)

// NewTracer returns an empty tracer whose clock starts now.
func NewTracer() *Tracer { return obs.New() }

// WithTracer returns a context carrying the tracer; pass it to Appro,
// Simulate, RunFigure etc. to collect stage timings.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	return obs.WithTracer(ctx, t)
}

// TracerFromContext returns the context's tracer, or nil (all Tracer
// methods are nil-safe no-ops).
func TracerFromContext(ctx context.Context) *Tracer { return obs.FromContext(ctx) }

// Appro runs Algorithm 1 of the paper and returns the planned schedule.
// Most callers want PlanAppro, which additionally executes the plan so the
// returned times are conflict-free. The context cancels or deadlines the
// computation; the returned error then wraps ctx.Err().
func Appro(ctx context.Context, in *Instance) (*Schedule, error) {
	return core.Appro(ctx, in, core.Options{})
}

// PlanAppro plans with Algorithm Appro and executes the plan, returning a
// schedule that provably never charges a sensor from two chargers at once.
func PlanAppro(ctx context.Context, in *Instance) (*Schedule, error) {
	return core.ApproPlanner{}.Plan(ctx, in)
}

// Execute simulates the chargers driving a planned schedule, enforcing the
// no-simultaneous-charging constraint by waiting where needed. It always
// runs to completion — a half-executed schedule would be unusable — but
// records its duration on any tracer in ctx.
func Execute(ctx context.Context, in *Instance, planned *Schedule) *Schedule {
	return core.Execute(ctx, in, planned)
}

// Verify independently checks a schedule against the problem definition
// (coverage, disjointness, travel-time consistency, no simultaneous
// charging) and returns all violations found.
func Verify(in *Instance, s *Schedule) []Violation {
	return core.Verify(in, s)
}

// VerifyScheme checks a schedule under its own charging scheme: a
// one-to-one schedule under point charging (gamma = 0, no overlap
// constraint, since directional chargers cannot interfere), a multi-node
// schedule under Verify. It is the rule the simulator, wrsn-plan and the
// citygrid example apply to every planner's output.
func VerifyScheme(in *Instance, s *Schedule) []Violation {
	return core.VerifyScheme(in, s)
}

// NewApproPlanner returns Algorithm Appro as a Planner.
func NewApproPlanner() Planner {
	return core.ApproPlanner{}
}

// NewPlanner resolves a planner by name through the planner registry
// (internal/registry): the paper's "Appro", "K-EDF", "NETWRAP", "AA" and
// "K-minMax" plus registered extensions such as "BiLevel". Resolution is
// case-insensitive over canonical names and aliases; the empty string
// selects the default planner (Appro). Unknown names return an error
// listing every valid name.
func NewPlanner(name string) (Planner, error) {
	return registry.New(name, nil)
}

// NewPlannerWithOptions resolves a planner by name and constructs it
// under the given options. Only the seeded planner (BiLevel) reads them;
// the others, Appro included, ignore them.
func NewPlannerWithOptions(name string, opts PlannerOptions) (Planner, error) {
	return registry.New(name, &opts)
}

// Planners returns every registered algorithm in presentation order: the
// paper's five (Appro first, then the four baselines) followed by this
// reproduction's extensions (BiLevel).
func Planners() []Planner {
	return registry.Planners()
}

// PlannerNames returns the canonical names of every registered planner,
// in the same order as Planners.
func PlannerNames() []string {
	return registry.Names()
}

// PlanConcurrently plans the same instance under every planner, fanned
// out over GOMAXPROCS goroutines, and returns one schedule per planner, in
// input order. Work is identified and merged by index (see internal/par),
// so the output is independent of GOMAXPROCS. On failure it returns the
// lowest-index planner's error; on cancellation the error wraps
// ctx.Err(). Slots whose planner did not complete are nil.
func PlanConcurrently(ctx context.Context, in *Instance, planners []Planner) ([]*Schedule, error) {
	return par.Map(ctx, len(planners), 0, func(ctx context.Context, i int) (*Schedule, error) {
		return planners[i].Plan(ctx, in)
	})
}

// NewNetworkParams returns the paper's default environment for n sensors
// (Section VI-A): 100 x 100 m^2 field, 10.8 kJ batteries, 1-50 kbps data
// rates, gamma 2.7 m, speed 1 m/s, eta 2 W.
func NewNetworkParams(n int) NetworkParams { return workload.NewParams(n) }

// GenerateNetwork builds a routed WRSN from the parameters; equal seeds
// produce identical networks.
func GenerateNetwork(p NetworkParams, seed int64) (*Network, error) {
	return workload.Generate(p, seed)
}

// Simulate runs the paper's evaluation protocol on the network with k
// chargers under the given planner. On cancellation it returns both the
// partial result — books closed at the cancellation time — and an error
// wrapping ctx.Err().
func Simulate(ctx context.Context, nw *Network, k int, planner Planner, cfg SimConfig) (*SimResult, error) {
	return sim.Run(ctx, nw, k, planner, cfg)
}

// RunFigure regenerates one of the paper's evaluation figures: id "3"
// sweeps the network size, "4" the maximum data rate, "5" the number of
// chargers. It returns the (a) panel — average longest tour duration in
// hours — and the (b) panel — average dead duration per sensor in minutes.
// On cancellation the panels aggregate the cells that completed and the
// error wraps ctx.Err().
func RunFigure(ctx context.Context, id string, opt ExperimentOptions) (a, b *FigureResult, err error) {
	return experiments.Run(ctx, id, opt)
}

// Fault injection and recovery (see internal/fault and internal/sim).
// Attach a FaultPlan to SimConfig.Faults to subject the simulated fleet to
// seed-deterministic MCV breakdowns, travel/charging delay noise, sensor
// churn and request bursts; the simulator repairs broken chargers' tours
// online and reports degradation through SimResult.Faults.
type (
	// FaultPlan configures deterministic fault injection for a run.
	FaultPlan = fault.Plan
	// ScriptedFailure forces one specific MCV breakdown.
	ScriptedFailure = fault.ScriptedFailure
	// FaultStats aggregates injected faults and recovery outcomes.
	FaultStats = sim.FaultStats
)

// ErrFleetLost is returned (wrapped) by Simulate when every charger has
// permanently broken down; the partial result is still returned with it.
var ErrFleetLost = fault.ErrFleetLost

// ParseFaultSpec builds a FaultPlan from a compact comma-separated spec
// such as "mcv=0.1,transient=0.5,travel-noise=0.05".
func ParseFaultSpec(spec string) (*FaultPlan, error) { return fault.ParseSpec(spec) }

// LoadFaultPlan reads and validates a JSON FaultPlan.
func LoadFaultPlan(r io.Reader) (*FaultPlan, error) { return fault.Load(r) }

// Analysis and bounds (see internal/core and internal/lowerbound).
type (
	// Analysis reports the ingredients of the paper's approximation-ratio
	// proof, computed for a concrete instance.
	Analysis = core.Analysis
	// LowerBound holds provable lower bounds on the optimal longest
	// charge delay.
	LowerBound = lowerbound.Bound
)

// Analyze computes the approximation-ratio ingredients of Theorem 1 — the
// auxiliary graph's maximum degree, tau_max/tau_min, and the resulting
// instance-specific guarantee — without producing a schedule.
func Analyze(ctx context.Context, in *Instance) (*Analysis, error) {
	return core.Analyze(ctx, in)
}

// ComputeLowerBound returns provable lower bounds on the optimal longest
// charge delay; Schedule.Longest / ComputeLowerBound(in).Value bounds a
// schedule's true approximation factor from above.
func ComputeLowerBound(in *Instance) LowerBound {
	return lowerbound.Compute(in)
}

// Capacitated chargers (see internal/capacitated): the paper assumes
// chargers carry enough energy for a whole tour; these types drop that
// assumption.
type (
	// ChargerParams is the charger's energy model.
	ChargerParams = capacitated.Params
	// CapacitatedPlan splits each tour into battery-feasible trips.
	CapacitatedPlan = capacitated.Plan
)

// SplitCapacitated converts a planned schedule into depot-returning trips
// that each fit the charger battery. eta is the charging rate in watts.
func SplitCapacitated(ctx context.Context, in *Instance, s *Schedule, eta float64, p ChargerParams) (*CapacitatedPlan, error) {
	return capacitated.Split(ctx, in, s, eta, p)
}

// LoadNetwork reads a JSON network (as cmd/wrsn-gen writes it) and
// recomputes its routing state.
func LoadNetwork(r io.Reader) (*Network, error) { return wrsn.Load(r) }
