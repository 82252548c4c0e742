package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/ktour"
	"repro/internal/lowerbound"
	"repro/internal/obs"
	"repro/internal/plancache"
	"repro/internal/serve"
)

// replay is the traced run's unit of work on instance k: it times each
// layer of one plan, check and service round trip by calling the layer's
// public functions in the order the program does, and checks the plan
// like planAndCheck does. The handler calls use hot instance k mod hot.
func (r *run) replay(k int) error {
	in := r.insts[k]
	c := canonical(in)
	pts := c.Positions()

	// Steps 1-4 of Appro on the canonical order it plans in.
	var grid *geom.Grid
	gridS := r.time("geom.grid_s", func() { grid = geom.NewGrid(pts, c.Gamma) })
	var gc *graph.Undirected
	unitS := r.time("graph.unitdisk_s", func() { gc = graph.UnitDisk(pts, c.Gamma) })
	r.add("graph.gc_edges", float64(gc.NumEdges()))
	cfg := graph.MISConfig{Rng: rand.New(rand.NewSource(0))}
	var si, vh []int
	runtime.GC()
	misStart := time.Now()
	si = graph.MaximalIndependentSetWith(gc, graph.MISMaxDegree, cfg)
	mis := time.Since(misStart)
	var hg *graph.Undirected
	interS := r.time("graph.intersection_s", func() { hg = graph.IntersectionGraph(pts, si, c.Gamma) })
	r.add("graph.h_edges", float64(hg.NumEdges()))
	runtime.GC()
	misStart = time.Now()
	vh = graph.MaximalIndependentSetWith(hg, graph.MISMaxDegree, cfg)
	mis += time.Since(misStart)
	r.add("graph.mis_s", mis.Seconds())
	r.add("graph.si_size", float64(len(si)))
	r.add("graph.vh_size", float64(len(vh)))

	// Step 5: K-minMax over V'_H with Appro's service times.
	kin := ktour.Input{Depot: c.Depot, Speed: c.Speed, K: c.K}
	var buf []int
	for _, hi := range vh {
		p := pts[si[hi]]
		svc := 0.0
		buf = grid.Neighbors(p, c.Gamma, buf)
		for _, u := range buf {
			svc = max(svc, c.Requests[u].Duration)
		}
		kin.Nodes = append(kin.Nodes, p)
		kin.Service = append(kin.Service, svc)
	}
	gt := r.time("ktour.grand_tour_s", func() { ktour.GrandTourOrder(r.ctx, kin) })
	var kerr error
	mm := r.time("ktour.minmax_s", func() { _, kerr = ktour.MinMax(r.ctx, kin) })
	if kerr != nil {
		return kerr
	}
	r.add("ktour.split_s", mm-gt)

	// The whole planner: Appro and Execute untraced, then one traced plan
	// whose insertion stage has no public entry point of its own.
	var planned *core.Schedule
	var err error
	appro := r.time("core.appro_s", func() { planned, err = core.Appro(r.ctx, in, core.Options{}) })
	if err != nil {
		return err
	}
	exec := r.time("core.execute_s", func() { core.Execute(r.ctx, in, planned) })
	runtime.GC()
	tr := obs.New()
	t0 := time.Now()
	s, err := core.ApproPlanner{}.Plan(obs.WithTracer(r.ctx, tr), in)
	traced := time.Since(t0).Seconds()
	if err != nil {
		return err
	}
	insertion := tr.StageSeconds(obs.StageInsertion)
	r.add("core.insertion_s", insertion)
	r.add("core.untraced_s", appro-(gridS+unitS+mis.Seconds()+interS+mm+insertion))
	r.add("obs.overhead_s", traced-(appro+exec))

	// Checking the plan.
	var viol []core.Violation
	r.time("core.verify_s", func() { viol = core.Verify(in, s) })
	r.add("core.stops", float64(s.NumStops()))
	var lb lowerbound.Bound
	r.time("lowerbound.compute_s", func() { lb = lowerbound.Compute(in) })
	r.add("lowerbound.packed", float64(lb.PackingSize))
	if len(viol) > 0 {
		return fmt.Errorf("%d violations, first %v", len(viol), viol[0])
	}

	// The service's pieces: encode, cache key and clone, body decode,
	// then whole handler calls without a socket.
	var enc []byte
	r.time("export.encode_s", func() { enc = encodeSchedule(s) })
	r.add("export.bytes", float64(len(enc)))
	if err := r.checkRef(k, enc); err != nil {
		return err
	}
	name, opts := plancache.Identity(core.ApproPlanner{})
	r.time("plancache.key_s", func() { plancache.KeyOf(name, opts, in) })
	r.time("plancache.clone_s", func() { plancache.Clone(s) })
	h := k % r.cfg.w.hot
	var derr error
	r.time("serve.decode_ms", func() { _, derr = decodeInstance(r.bodies[h]) })
	if derr != nil {
		return derr
	}
	if err := r.timeHandler("serve.handler_hit_ms", r.srv.srv, r.bodies[h], "hit", r.refs[h]); err != nil {
		return err
	}
	return r.handlerMiss(h)
}

// handlerMiss times one /v1/plan handler call that misses the cache: a
// fresh instance on the run's service when the workload has fresh
// traffic, else hot instance h on a service without a cache.
func (r *run) handlerMiss(h int) error {
	w := r.cfg.w
	if w.freshShare == 0 {
		srv := serve.New(serve.Config{CacheCapacity: -1})
		defer srv.Close()
		return r.timeHandler("serve.handler_miss_ms", srv, r.bodies[h], "off", r.refs[h])
	}
	seed := r.missStream.Int63()
	in := buildInstance(w.n, w.k, seed, w.side)
	rec, err := r.handle("serve.handler_miss_ms", r.srv.srv, encodeInstance(in), "miss")
	if err != nil {
		return err
	}
	var s core.Schedule
	if err := json.Unmarshal(rec, &s); err != nil {
		return fmt.Errorf("decode fresh response: %w", err)
	}
	if viol := core.Verify(in, &s); len(viol) > 0 {
		return fmt.Errorf("fresh response: %d violations, first %v", len(viol), viol[0])
	}
	return nil
}

// timeHandler times one handler call and checks its body equals want.
func (r *run) timeHandler(metric string, srv *serve.Server, body []byte, state string, want []byte) error {
	got, err := r.handle(metric, srv, body, state)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s: response bytes differ from the direct plan", metric)
	}
	return nil
}

// handle calls srv's handler with a /v1/plan request, records its
// milliseconds under metric, and checks the status and cache state.
func (r *run) handle(metric string, srv *serve.Server, body []byte, state string) ([]byte, error) {
	req := httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	r.time(metric, func() { srv.Handler().ServeHTTP(rec, req) })
	if rec.Code != http.StatusOK || rec.Header().Get("X-Plan-Cache") != state {
		return nil, fmt.Errorf("%s: status %d, cache %q, want 200 and %q", metric, rec.Code, rec.Header().Get("X-Plan-Cache"), state)
	}
	return rec.Body.Bytes(), nil
}

// decodeInstance decodes a bare-instance body the way the service does:
// strictly, rejecting unknown fields.
func decodeInstance(body []byte) (*core.Instance, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var in core.Instance
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("decode instance: %w", err)
	}
	return &in, nil
}

// time runs fn on a freshly collected heap and returns its seconds,
// recording them under metric in the metric's unit: milliseconds for a
// name ending in _ms, else seconds.
func (r *run) time(metric string, fn func()) float64 {
	runtime.GC()
	t0 := time.Now()
	fn()
	d := time.Since(t0).Seconds()
	if strings.HasSuffix(metric, "_ms") {
		r.add(metric, d*1000)
	} else {
		r.add(metric, d)
	}
	return d
}
