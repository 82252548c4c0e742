package serve

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"
)

// handleMetrics renders the server's state as Prometheus text exposition:
// the obs tracer's stage timings and counters (the same data wrsn-plan
// -trace-json reports, aggregated across every request this process has
// served), the shared plan cache, the admission pool, and per-route HTTP
// outcome counts. Series are emitted in sorted order so consecutive
// scrapes diff cleanly.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var b strings.Builder

	writeMetric := func(help, typ, name string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n%s %g\n", name, help, name, typ, name, v)
	}

	writeMetric("Seconds since the server started.", "counter",
		"wrsn_serve_uptime_seconds", time.Since(s.started).Seconds())
	drain := 0.0
	if s.draining.Load() {
		drain = 1
	}
	writeMetric("1 while the server is draining, else 0.", "gauge", "wrsn_serve_draining", drain)
	writeMetric("Requests currently past admission checks.", "gauge",
		"wrsn_serve_inflight_requests", float64(s.inflight.Load()))

	// Planning-stage spans and engine counters from the shared tracer.
	rep := s.tracer.Report()
	stages := make([]string, 0, len(rep.Stages))
	byName := map[string]int{}
	for i, st := range rep.Stages {
		byName[st.Name] = i
		stages = append(stages, st.Name)
	}
	sort.Strings(stages)
	fmt.Fprintf(&b, "# HELP wrsn_serve_stage_seconds_total Total seconds recorded per planning stage.\n# TYPE wrsn_serve_stage_seconds_total counter\n")
	for _, name := range stages {
		fmt.Fprintf(&b, "wrsn_serve_stage_seconds_total{stage=%q} %g\n", name, rep.Stages[byName[name]].Seconds)
	}
	fmt.Fprintf(&b, "# HELP wrsn_serve_stage_spans_total Spans recorded per planning stage.\n# TYPE wrsn_serve_stage_spans_total counter\n")
	for _, name := range stages {
		fmt.Fprintf(&b, "wrsn_serve_stage_spans_total{stage=%q} %d\n", name, rep.Stages[byName[name]].Count)
	}
	counters := make([]string, 0, len(rep.Counters))
	for name := range rep.Counters {
		counters = append(counters, name)
	}
	sort.Strings(counters)
	fmt.Fprintf(&b, "# HELP wrsn_serve_engine_counter_total Engine counters (obs tracer).\n# TYPE wrsn_serve_engine_counter_total counter\n")
	for _, name := range counters {
		fmt.Fprintf(&b, "wrsn_serve_engine_counter_total{name=%q} %d\n", name, rep.Counters[name])
	}

	// Plan cache.
	if s.cache != nil {
		cs := s.cache.Stats()
		writeMetric("Plan cache hits.", "counter", "wrsn_serve_plancache_hits_total", float64(cs.Hits))
		writeMetric("Plan cache hits answered from the body index without a decode (also counted as hits).", "counter",
			"wrsn_serve_plancache_body_hits_total", float64(cs.BodyHits))
		writeMetric("Plan cache misses.", "counter", "wrsn_serve_plancache_misses_total", float64(cs.Misses))
		writeMetric("Plan cache insertions.", "counter", "wrsn_serve_plancache_puts_total", float64(cs.Puts))
		writeMetric("Plan cache LRU evictions.", "counter", "wrsn_serve_plancache_evictions_total", float64(cs.Evictions))
		writeMetric("Plan cache entries.", "gauge", "wrsn_serve_plancache_size", float64(cs.Size))
		writeMetric("Plan cache capacity.", "gauge", "wrsn_serve_plancache_capacity", float64(cs.Capacity))
	}

	// Shard router: resilience counters and per-backend health/breaker
	// state, labeled by backend host so a dashboard can watch one shard
	// fail and recover.
	if s.router != nil {
		rt := s.router
		writeMetric("Routed plan requests answered by a backend.", "counter",
			"wrsn_serve_router_routed_total", float64(rt.routedOK.Load()))
		writeMetric("Plan requests that fell back to local planning (X-Plan-Degraded).", "counter",
			"wrsn_serve_router_degraded_local_total", float64(rt.degraded.Load()))
		writeMetric("Proxy attempts beyond the first per request.", "counter",
			"wrsn_serve_router_retries_total", float64(rt.retries.Load()))
		writeMetric("Retries that switched to a different backend.", "counter",
			"wrsn_serve_router_failovers_total", float64(rt.failovers.Load()))
		writeMetric("Hedged second requests launched.", "counter",
			"wrsn_serve_router_hedges_total", float64(rt.hedges.Load()))
		writeMetric("Hedged requests whose response won.", "counter",
			"wrsn_serve_router_hedge_wins_total", float64(rt.hedgeWins.Load()))
		writeMetric("Singleflight duplicate deliveries (collapsed identical requests).", "counter",
			"wrsn_serve_router_collapsed_total", float64(rt.collapsed.Load()))
		writeMetric("Backends currently probing healthy.", "gauge",
			"wrsn_serve_router_healthy_backends", float64(rt.healthyCount()))
		fmt.Fprintf(&b, "# HELP wrsn_serve_router_backend_healthy 1 while the backend's /readyz probes 200.\n# TYPE wrsn_serve_router_backend_healthy gauge\n")
		for _, be := range rt.backends {
			h := 0.0
			if be.healthy.Load() {
				h = 1
			}
			fmt.Fprintf(&b, "wrsn_serve_router_backend_healthy{backend=%q} %g\n", be.host, h)
		}
		fmt.Fprintf(&b, "# HELP wrsn_serve_router_breaker_state Circuit breaker position (0 closed, 1 open, 2 half-open).\n# TYPE wrsn_serve_router_breaker_state gauge\n")
		for _, be := range rt.backends {
			fmt.Fprintf(&b, "wrsn_serve_router_breaker_state{backend=%q} %d\n", be.host, be.breaker.State())
		}
		fmt.Fprintf(&b, "# HELP wrsn_serve_router_breaker_opens_total Transitions to open per backend breaker.\n# TYPE wrsn_serve_router_breaker_opens_total counter\n")
		for _, be := range rt.backends {
			fmt.Fprintf(&b, "wrsn_serve_router_breaker_opens_total{backend=%q} %d\n", be.host, be.breaker.Opens())
		}
		if n := rt.hist.Count(); n > 0 {
			writeMetric("Routed attempt latency p50 seconds.", "gauge",
				"wrsn_serve_router_latency_p50_seconds", rt.hist.Quantile(0.50).Seconds())
			writeMetric("Routed attempt latency p99 seconds.", "gauge",
				"wrsn_serve_router_latency_p99_seconds", rt.hist.Quantile(0.99).Seconds())
			writeMetric("Routed attempt latency p999 seconds.", "gauge",
				"wrsn_serve_router_latency_p999_seconds", rt.hist.Quantile(0.999).Seconds())
		}
	}

	// Admission pool.
	ps := s.pool.Stats()
	writeMetric("Configured planning workers.", "gauge", "wrsn_serve_pool_workers", float64(ps.Workers))
	writeMetric("Configured admission queue depth.", "gauge", "wrsn_serve_pool_queue_depth", float64(ps.QueueDepth))
	writeMetric("Worker slots currently held.", "gauge", "wrsn_serve_pool_active", float64(ps.Active))
	writeMetric("Callers currently queued for a slot.", "gauge", "wrsn_serve_pool_queued", float64(ps.Queued))
	writeMetric("Tasks submitted to the pool.", "counter", "wrsn_serve_pool_submitted_total", float64(ps.Submitted))
	writeMetric("Tasks rejected with ErrSaturated.", "counter", "wrsn_serve_pool_rejected_total", float64(ps.Rejected))
	writeMetric("Tasks run to completion.", "counter", "wrsn_serve_pool_completed_total", float64(ps.Completed))

	// HTTP outcomes.
	s.mu.Lock()
	keys := make([]string, 0, len(s.outcomes))
	for k := range s.outcomes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(&b, "# HELP wrsn_serve_http_requests_total Finished requests by route and status.\n# TYPE wrsn_serve_http_requests_total counter\n")
	for _, k := range keys {
		route, status, _ := strings.Cut(k, "|")
		fmt.Fprintf(&b, "wrsn_serve_http_requests_total{route=%q,code=%q} %d\n", route, status, s.outcomes[k])
	}
	s.mu.Unlock()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(b.String()))
}
