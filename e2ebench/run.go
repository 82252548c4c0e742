package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/export"
	"repro/internal/lowerbound"
)

// setupRounds is how many times a run sets up from scratch; setup_s is
// their median and the last round's server carries the run.
const setupRounds = 3

// rounds is how many alternating direct and serve slices a run is cut
// into, so each metric's samples spread over the whole run instead of
// one stretch of it on a machine whose speed drifts. The traced run,
// whose replays are long and whose metrics carry no bound, uses two.
const (
	rounds       = 4
	tracedRounds = 2
)

// plansPerInstance is how often a workload whose serve phase fills the
// run plans each instance directly.
const plansPerInstance = 4

// config is one benchmark run.
type config struct {
	w       workload
	seed    int64
	seconds float64
	trace   bool
}

// run holds one run's inputs, service and samples.
type run struct {
	cfg    config
	ctx    context.Context
	insts  []*core.Instance
	bodies [][]byte // bare-instance /v1/plan bodies of the hot instances
	// refs holds each instance's reference plan bytes: the service's
	// warm-up response for a hot instance, else its first direct plan.
	refs [][]byte
	// checked marks the instances whose plan passed the full check.
	checked []bool
	srv     *server
	// missStream draws the fresh instances of traced handler misses.
	missStream  *rand.Rand
	next        int     // instance of the next direct plan
	directSpent float64 // seconds the direct phase has used so far

	// Serve phase records, accumulated over the rounds.
	logs      []clientLog
	streams   []*rand.Rand // per-client request choices
	serveWall float64
	counters  map[string]int64 // service counter deltas over serve slices

	samples   map[string][]float64
	tails     map[string]percentile
	attempted int
	failed    int
	failures  []string
}

// result is what a run reports.
type result struct {
	metrics   []reported
	attempted int
	failed    int
	failures  []string
}

// reported is one metric's value over its samples.
type reported struct {
	def     metricDef
	value   float64
	samples int
	note    string
}

// execute runs the workload: set up, then alternate direct and serve
// slices, then the checks of fresh responses that serving deferred.
func execute(ctx context.Context, cfg config) (*result, error) {
	r := &run{cfg: cfg, ctx: ctx, samples: map[string][]float64{}, tails: map[string]percentile{},
		logs: make([]clientLog, clients), counters: map[string]int64{},
		missStream: clientStream(cfg.seed, -1)}
	for c := 0; c < clients; c++ {
		r.streams = append(r.streams, clientStream(cfg.seed, c))
	}
	defer func() {
		if r.srv != nil {
			_ = r.srv.stop() // teardown: the results are already taken
		}
	}()
	for i := 0; i < setupRounds; i++ {
		if r.srv != nil {
			err := r.srv.stop()
			r.srv = nil
			if err != nil {
				return nil, fmt.Errorf("stop setup server: %w", err)
			}
		}
		secs, err := r.setup()
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		r.add("setup_s", secs)
	}

	n := rounds
	if cfg.trace {
		n = tracedRounds
	}
	slice := cfg.seconds / float64(n)
	for i := 0; i < n; i++ {
		r.direct(i, n, slice)
		r.serveSlice(n, slice)
	}
	r.serveMetrics()
	r.checkFresh()
	return r.result(), nil
}

// setup generates the instances and the hot ones' request bodies,
// starts the service and warms its plan cache with one request per hot
// instance.
func (r *run) setup() (float64, error) {
	w := r.cfg.w
	start := time.Now()
	r.insts = make([]*core.Instance, w.instances)
	r.refs = make([][]byte, w.instances)
	r.checked = make([]bool, w.instances)
	r.bodies = make([][]byte, w.hot)
	for i := range r.insts {
		r.insts[i] = buildInstance(w.n, w.k, instanceSeed(r.cfg.seed, i), w.side)
	}
	for h := range r.bodies {
		r.bodies[h] = encodeInstance(r.insts[h])
	}
	srv, err := startServer()
	if err != nil {
		return 0, err
	}
	r.srv = srv // stopped by execute, also when warming fails
	for h, body := range r.bodies {
		status, state, resp, err := srv.post(body)
		if err != nil {
			return 0, fmt.Errorf("warm hot instance %d: %w", h, err)
		}
		if status != 200 || state != "miss" {
			return 0, fmt.Errorf("warm hot instance %d: status %d, cache %q", h, status, state)
		}
		r.refs[h] = resp
	}
	return time.Since(start).Seconds(), nil
}

// direct is direct slice round of n: it plans and checks the instances
// round-robin. When the workload's direct phase fills the run it goes on
// until the direct phase as a whole has used round+1 slices, so a long
// first check borrows from later slices instead of lengthening the run;
// otherwise it plans a 1/n share of plansPerInstance plans per instance.
// The traced run replays each plan layer by layer.
func (r *run) direct(round, n int, slice float64) {
	w := r.cfg.w
	for i := 0; ; i++ {
		if w.directFills {
			if r.directSpent >= float64(round+1)*slice {
				break
			}
		} else if i >= plansPerInstance*len(r.insts)/n {
			break
		}
		start := time.Now()
		k := r.next % len(r.insts)
		r.next++
		r.attempted++
		var err error
		if r.cfg.trace {
			err = r.replay(k)
		} else {
			err = r.planAndCheck(k)
		}
		if err != nil {
			r.fail("direct plan of instance %d: %v", k, err)
		}
		r.directSpent += time.Since(start).Seconds()
	}
}

// planAndCheck times one cold plan (Appro + Execute) with its
// allocation and checks its bytes against the instance's reference. The
// first plan of each instance is also checked in full, timed: Verify and
// the lower bound. Later plans of the instance are byte-identical to that
// verified plan, so the full check would only repeat itself, and on the
// large workloads it costs several plans' time.
func (r *run) planAndCheck(k int) error {
	in := r.insts[k]
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	s, err := core.ApproPlanner{}.Plan(r.ctx, in)
	planned := time.Since(t0)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return err
	}
	r.add("plan_s", planned.Seconds())
	r.add("plan_alloc_mb", float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
	if err := r.checkRef(k, encodeSchedule(s)); err != nil {
		return err
	}
	if r.checked[k] {
		return nil
	}
	r.checked[k] = true
	t1 := time.Now()
	viol := core.Verify(in, s)
	lb := lowerbound.Compute(in)
	checked := time.Since(t1)
	if len(viol) > 0 {
		return fmt.Errorf("%d violations, first %v", len(viol), viol[0])
	}
	if !(lb.Value > 0) {
		return fmt.Errorf("lower bound %v", lb.Value)
	}
	r.add("check_s", checked.Seconds())
	r.add("objective_h", s.Longest/3600)
	r.add("lb_gap", s.Longest/lb.Value)
	return nil
}

// checkRef checks a direct plan's bytes against instance k's reference
// bytes, which it sets on the first plan of an instance nobody served.
func (r *run) checkRef(k int, b []byte) error {
	if r.refs[k] == nil {
		r.refs[k] = b
		return nil
	}
	if !bytes.Equal(r.refs[k], b) {
		return fmt.Errorf("plan bytes differ from the reference plan of the instance")
	}
	return nil
}

// freshReply is a fresh-instance response kept for checking after the
// run.
type freshReply struct {
	seed int64
	body []byte
}

// clientLog is one serve client's record.
type clientLog struct {
	lat, hitLat []float64
	attempted   int
	failures    []string
	fresh       []freshReply
}

// serveSlice is one of n serve slices: closed-loop clients post to the
// service, a 1/n share of the workload's request count when the direct
// phase fills the run, else for the slice's seconds. Hot responses must
// equal the instance's reference bytes; fresh ones are kept for
// checkFresh.
func (r *run) serveSlice(n int, seconds float64) {
	w := r.cfg.w
	before := r.srv.counters()
	var issued atomic.Int64
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	done := make(chan struct{})
	for c := 0; c < clients; c++ {
		go func(lg *clientLog, rng *rand.Rand) {
			defer func() { done <- struct{}{} }()
			for {
				if w.directFills {
					if issued.Add(1) > int64(w.serveRequests/n) {
						return
					}
				} else if !time.Now().Before(deadline) {
					return
				}
				h, seed, body := -1, int64(0), []byte(nil)
				if rng.Float64() < w.freshShare {
					seed = rng.Int63()
					body = encodeInstance(buildInstance(w.n, w.k, seed, w.side))
				} else {
					h = rng.Intn(w.hot)
					body = r.bodies[h]
				}
				lg.attempted++
				t0 := time.Now()
				status, state, resp, err := r.srv.post(body)
				ms := float64(time.Since(t0)) / float64(time.Millisecond)
				switch {
				case err != nil:
					lg.failures = append(lg.failures, err.Error())
					continue
				case status != 200:
					lg.failures = append(lg.failures, fmt.Sprintf("status %d: %.200s", status, resp))
					continue
				}
				lg.lat = append(lg.lat, ms)
				if state == "hit" {
					lg.hitLat = append(lg.hitLat, ms)
				}
				if h < 0 {
					lg.fresh = append(lg.fresh, freshReply{seed: seed, body: resp})
				} else if !bytes.Equal(resp, r.refs[h]) {
					lg.failures = append(lg.failures, fmt.Sprintf("hot instance %d: response bytes differ from the warm-up response and direct plan", h))
				}
			}
		}(&r.logs[c], r.streams[c])
	}
	for c := 0; c < clients; c++ {
		<-done
	}
	r.serveWall += time.Since(start).Seconds()
	after := r.srv.counters()
	for k, v := range after {
		r.counters[k] += v - before[k]
	}
}

// serveMetrics reduces the serve slices' records to metrics and failures.
func (r *run) serveMetrics() {
	var lat, hitLat []float64
	for _, lg := range r.logs {
		lat = append(lat, lg.lat...)
		hitLat = append(hitLat, lg.hitLat...)
		r.attempted += lg.attempted
		for _, f := range lg.failures {
			r.fail("serve: %s", f)
		}
	}
	r.samples["serve_p50_ms"] = lat
	tail := highestTail(lat)
	r.tails["serve_p99_ms"] = tail
	r.add("serve_p99_ms", tail.Value)
	r.add("serve_rps", float64(len(lat))/r.serveWall)

	if hits, misses := float64(r.counters["cache.hits"]), float64(r.counters["cache.misses"]); hits+misses > 0 {
		r.add("plancache.hit_ratio", hits/(hits+misses))
	}
	r.add("plancache.evictions", float64(r.counters["cache.evictions"]))
	r.add("par.pool_rejected", float64(r.srv.counters()["par.pool.rejected"]))
	if hs, ok := r.samples["serve.handler_hit_ms"]; ok && len(hitLat) > 0 {
		r.add("serve.net_ms", median(hitLat)-median(hs))
	}
}

// checkFresh decodes every fresh-instance response and verifies it
// against its regenerated instance.
func (r *run) checkFresh() {
	w := r.cfg.w
	for _, lg := range r.logs {
		for _, f := range lg.fresh {
			var s core.Schedule
			if err := json.Unmarshal(f.body, &s); err != nil {
				r.fail("fresh instance %d: decode response: %v", f.seed, err)
				continue
			}
			in := buildInstance(w.n, w.k, f.seed, w.side)
			if viol := core.Verify(in, &s); len(viol) > 0 {
				r.fail("fresh instance %d: %d violations, first %v", f.seed, len(viol), viol[0])
			}
		}
	}
}

func (r *run) add(name string, v float64) { r.samples[name] = append(r.samples[name], v) }

func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// result reduces the samples to the metrics of the run's mode.
func (r *run) result() *result {
	defs := endToEnd
	if r.cfg.trace {
		defs = perLayer
	}
	res := &result{attempted: r.attempted, failed: r.failed, failures: r.failures}
	for _, d := range defs {
		xs := r.samples[d.name]
		m := reported{def: d, value: median(xs), samples: len(xs)}
		if d.mean {
			m.value, m.note = mean(xs), "mean"
		}
		if t, ok := r.tails[d.name]; ok {
			m.samples, m.note = t.N, t.String()
		}
		res.metrics = append(res.metrics, m)
	}
	return res
}

func encodeInstance(in *core.Instance) []byte {
	var b bytes.Buffer
	_ = export.WriteInstance(&b, in) // a bytes.Buffer write cannot fail
	return b.Bytes()
}

func encodeSchedule(s *core.Schedule) []byte {
	var b bytes.Buffer
	_ = export.WriteSchedule(&b, s) // a bytes.Buffer write cannot fail
	return b.Bytes()
}
