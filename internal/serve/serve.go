// Package serve is the online face of the planning engine: an HTTP/JSON
// service that plans charging tours (and runs evaluation simulations) per
// request, with the admission control, deadlines and observability that
// serving traffic demands and a batch CLI does not.
//
// Endpoints:
//
//	POST /v1/plan      plan one instance; body is an instance or a
//	                   {planner, instance, options, timeout_ms} envelope.
//	                   The response body is the schedule encoded exactly
//	                   as `wrsn-plan -json` writes it — byte-identical
//	                   for equal instances — with request metadata in
//	                   X-Planner / X-Plan-Cache / X-Plan-Seconds headers.
//	POST /v1/simulate  run the paper's evaluation protocol on a network
//	                   (either an inline network JSON or {n, seed}
//	                   generator parameters) and return summary metrics.
//	GET  /v1/planners  list the registered planners: canonical names,
//	                   aliases, capability flags, and which is the
//	                   default — straight from the planner registry, so
//	                   the listing can never drift from what ?planner=
//	                   accepts.
//	GET  /livez        200 "ok" from startup to process exit — pure
//	                   process liveness, draining included.
//	GET  /readyz       200 "ok" while traffic-worthy; 503 "draining"
//	                   during shutdown, and 503 "no healthy backends"
//	                   in router mode while every shard is down — flip
//	                   load balancers away before the listener closes.
//	GET  /healthz      compatibility alias for /readyz.
//	GET  /metrics      Prometheus-style text: obs stage timings and
//	                   counters, plan-cache stats, pool admission stats,
//	                   and per-route HTTP outcome counts.
//	GET  /debug/pprof  the standard net/http/pprof handlers.
//
// Concurrency and admission: planning runs through a bounded par.Pool
// with Workers slots and an explicit QueueDepth. A request that finds
// every worker busy and the queue full is rejected immediately with
// 429 Too Many Requests and a Retry-After hint — overload sheds instead
// of stacking latency. Each request plans under a deadline (its
// timeout_ms, clamped to MaxTimeout, else DefaultTimeout) mapped onto the
// engine's context plumbing, so a deadline that expires mid-plan aborts
// the plan, frees the worker, and returns 504.
//
// All /v1/plan requests share one plan cache of response bytes, keyed on
// planner name, BiLevel's seed and canonical instance encoding. A
// request whose ?planner= value and body bytes repeat one answered
// before is answered by a SHA-256 of those bytes and a lookup in the
// cache's body index, which writes the stored response without decoding
// the body. A request that decodes to a cached instance (a reformatted
// body, another spelling of the planner) costs the decode and the key
// hash, then writes the same stored bytes. Responses are byte-identical
// with and without the cache. /v1/simulate plans every round afresh and
// leaves the cache alone.
//
// Router mode (Config.Shards): instead of planning locally, /v1/plan
// consistent-hashes the canonical plancache key across backend workers
// so a fleet shares cache locality, with health-checked routing, circuit
// breakers, deterministic-jitter retries honoring backend Retry-After
// hints, optional quantile-hedged second requests, and singleflight
// collapsing of concurrent identical requests. When every owner of a key
// is unreachable the router plans locally and marks the response
// X-Plan-Degraded: local — schedules stay byte-identical either way.
package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/plancache"
	"repro/internal/registry"
	"repro/internal/resilience"
)

// Config tunes a Server. The zero value serves on :8080 with GOMAXPROCS
// planning workers, a queue of DefaultQueueDepth, a DefaultCapacity plan
// cache and a 30 s default / 5 min maximum per-request deadline.
type Config struct {
	// Addr is the listen address for ListenAndServe (":8080" default;
	// use "127.0.0.1:0" to let the kernel pick a test port).
	Addr string
	// Workers bounds concurrently planning requests; <= 0 means
	// GOMAXPROCS.
	Workers int
	// QueueDepth bounds requests waiting for a planning worker; beyond
	// it requests are rejected with 429. 0 means DefaultQueueDepth;
	// negative means no queue (reject as soon as all workers are busy).
	QueueDepth int
	// CacheCapacity sizes the shared plan cache: 0 means the plancache
	// default, negative disables caching.
	CacheCapacity int
	// DefaultTimeout is the per-request planning deadline when the
	// request names none; 0 means 30 s.
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested deadlines; 0 means 5 min.
	MaxTimeout time.Duration
	// DrainTimeout bounds how long Drain waits for in-flight requests;
	// 0 means 30 s.
	DrainTimeout time.Duration
	// MaxBodyBytes caps request bodies; 0 means 32 MiB.
	MaxBodyBytes int64
	// RetryAfter is the Retry-After hint attached to 429 responses;
	// 0 means 1 s.
	RetryAfter time.Duration
	// NewPlanner resolves a planner name and optional planner options.
	// nil means DefaultPlanner (the planner registry).
	NewPlanner func(name string, opts *core.Options) (core.Planner, error)
	// Tracer, when non-nil, replaces the server's own tracer; stage
	// timings and counters from every request aggregate into it and
	// surface at /metrics.
	Tracer *obs.Tracer

	// Shards, when non-empty, turns the server into a shard router:
	// /v1/plan requests are consistent-hashed on their plancache key
	// across these backend workers (host:port or full URLs), with
	// health-aware routing, per-backend circuit breakers, retry with
	// deterministic backed-off jitter, optional hedging, singleflight
	// collapsing, and a degraded-local planning fallback when every
	// owner of a key is down. Other routes keep serving locally.
	Shards []string
	// HealthInterval is the backend /readyz probing cadence in router
	// mode; 0 means 500 ms.
	HealthInterval time.Duration
	// RouterMaxAttempts bounds proxy attempts (first try + retries +
	// failovers) per plan request; 0 means 2*len(Shards)+2.
	RouterMaxAttempts int
	// RouterAttemptTimeout bounds one proxied attempt, so a blackholed
	// backend costs one bounded slice of the request deadline, not all
	// of it; 0 means 10 s.
	RouterAttemptTimeout time.Duration
	// RouterBackoff shapes the retry schedule (zero value: 50 ms base,
	// 2 s cap, seed 0). A backend's 429 Retry-After hint overrides the
	// computed delay for the next attempt.
	RouterBackoff resilience.Backoff
	// RetryAfterCap bounds how long a backend's Retry-After hint can
	// defer a retry; 0 means 2 s.
	RetryAfterCap time.Duration
	// BreakerThreshold is the consecutive-failure count that opens a
	// backend's circuit breaker; 0 means 3.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker refuses before
	// half-open probing; 0 means 2 s.
	BreakerCooldown time.Duration
	// HedgeQuantile, when > 0 (e.g. 0.99), hedges a second request to
	// the next-ranked backend once the first attempt has outlived that
	// latency quantile. 0 disables hedging (a seeded fault replay
	// requires it off: hedge delays follow the wall clock).
	HedgeQuantile float64
	// Transport overrides the router's backend transport — the router
	// tests install a fault-injecting transport here. nil means
	// http.DefaultTransport. Health probes always use a plain
	// transport so injected faults cannot flap health verdicts.
	Transport http.RoundTripper
}

// DefaultQueueDepth is the admission queue bound used when
// Config.QueueDepth is 0.
const DefaultQueueDepth = 64

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8080"
	}
	switch {
	case c.QueueDepth == 0:
		c.QueueDepth = DefaultQueueDepth
	case c.QueueDepth < 0:
		c.QueueDepth = 0
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.NewPlanner == nil {
		c.NewPlanner = DefaultPlanner
	}
	if c.Tracer == nil {
		c.Tracer = obs.New()
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = 500 * time.Millisecond
	}
	if c.RouterMaxAttempts <= 0 {
		c.RouterMaxAttempts = 2*len(c.Shards) + 2
	}
	if c.RouterAttemptTimeout <= 0 {
		c.RouterAttemptTimeout = 10 * time.Second
	}
	if c.RetryAfterCap <= 0 {
		c.RetryAfterCap = 2 * time.Second
	}
	return c
}

// DefaultPlanner resolves planner names through the planner registry
// (internal/registry): the same names, aliases and case-insensitive
// matching wrsn-plan accepts. The empty name selects the registry's
// default planner (Appro). Options.Seed applies to the seeded planner
// (BiLevel) and is ignored by the others. Unknown names return an error
// listing every valid name — the body of the resulting 400.
func DefaultPlanner(name string, opts *core.Options) (core.Planner, error) {
	return registry.New(name, opts)
}

// Server is a planning service instance. Create one with New; it is
// immutable configuration plus shared mutable serving state (pool, cache,
// tracer, counters), all safe for concurrent use.
type Server struct {
	cfg    Config
	pool   *par.Pool
	cache  *plancache.Cache
	tracer *obs.Tracer
	router *router // nil unless cfg.Shards is set

	draining atomic.Bool
	inflight atomic.Int64 // /v1/* requests past admission checks
	started  time.Time

	mu       sync.Mutex
	outcomes map[string]int64 // "route|status" -> count

	addr atomic.Value // string; set once listening

	mux *http.ServeMux
}

// New builds a Server from cfg (zero value fine).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		pool:     par.NewPool(cfg.Workers, cfg.QueueDepth),
		tracer:   cfg.Tracer,
		started:  time.Now(),
		outcomes: make(map[string]int64),
	}
	if cfg.CacheCapacity >= 0 {
		s.cache = plancache.New(cfg.CacheCapacity)
	}
	if len(cfg.Shards) > 0 {
		s.router = newRouter(cfg)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/plan", s.handlePlan)
	s.mux.HandleFunc("POST /v1/simulate", s.handleSimulate)
	s.mux.HandleFunc("GET /v1/planners", s.handlePlanners)
	s.mux.HandleFunc("GET /livez", s.handleLivez)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /healthz", s.handleReadyz) // compatibility alias
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return s
}

// Handler returns the service's HTTP handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Addr returns the bound listen address once ListenAndServe is
// listening, else "".
func (s *Server) Addr() string {
	a, _ := s.addr.Load().(string)
	return a
}

// PoolSize returns the planning pool's worker slots and admission-queue
// depth, after Config's defaults: what the pool runs, not what was asked.
func (s *Server) PoolSize() (workers, queue int) {
	return par.Size(s.cfg.Workers), s.cfg.QueueDepth
}

// Close releases background resources (the router's health loop).
// Idempotent and safe on a non-router server; ListenAndServe calls it
// after draining, so only embedders using Handler directly need it.
func (s *Server) Close() {
	if s.router != nil {
		s.router.close()
	}
}

// ListenAndServe binds cfg.Addr and serves until ctx is cancelled, then
// drains gracefully: the health check and all /v1 routes flip to 503
// immediately, in-flight requests run to completion (bounded by
// DrainTimeout), and only then does the listener close. It returns nil
// after a clean drain.
func (s *Server) ListenAndServe(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.addr.Store(ln.Addr().String())
	hs := s.httpServer()
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	return s.drain(hs)
}

// Connection timeouts of the server ListenAndServe runs, so a client
// that stalls mid-headers or mid-body is disconnected instead of holding
// a connection, a goroutine and its body buffer. The read timeout covers
// the headers and the body: it lets a 32 MiB body (the MaxBodyBytes
// default) arrive at about 110 KB/s. net/http clears the connection's
// read deadline once a handler has read the body to its end, so the
// plan or simulation after the read runs under its own deadline
// (MaxTimeout) alone, however long the read took
// (TestContextOutlivesReadTimeout).
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 5 * time.Minute
	idleTimeout       = 2 * time.Minute
)

// httpServer builds the http.Server ListenAndServe runs.
func (s *Server) httpServer() *http.Server {
	return &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// drain performs the graceful shutdown sequence against hs.
func (s *Server) drain(hs *http.Server) error {
	s.draining.Store(true)
	defer s.Close()
	// Keep the listener open while in-flight work completes so late
	// requests receive an explicit 503 (not a connection error), then
	// close it. Bounded by DrainTimeout.
	deadline := time.Now().Add(s.cfg.DrainTimeout)
	for s.inflight.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	shCtx, cancel := context.WithDeadline(context.Background(), deadline.Add(time.Second))
	defer cancel()
	if err := hs.Shutdown(shCtx); err != nil {
		return fmt.Errorf("serve: drain: %w", err)
	}
	if n := s.inflight.Load(); n > 0 {
		return fmt.Errorf("serve: drain: %d requests still in flight after %v", n, s.cfg.DrainTimeout)
	}
	return nil
}

// requestContext maps the request's deadline wish onto the context
// plumbing: timeoutMS clamped to MaxTimeout, else DefaultTimeout, layered
// over the HTTP request context (client disconnects cancel too) with the
// server's tracer attached.
func (s *Server) requestContext(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
		if d > s.cfg.MaxTimeout {
			d = s.cfg.MaxTimeout
		}
	}
	ctx := obs.WithTracer(r.Context(), s.tracer)
	return context.WithTimeout(ctx, d)
}

// admit runs fn through the admission pool, translating pool and context
// failures to HTTP status codes. It returns false if the response has
// already been written (rejection path).
func (s *Server) admit(ctx context.Context, w http.ResponseWriter, route string, fn func(context.Context) error) bool {
	err := s.pool.Run(ctx, fn)
	switch {
	case err == nil:
		return true
	case errors.Is(err, par.ErrSaturated):
		w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
		s.writeError(w, route, http.StatusTooManyRequests, "server saturated: all planning workers busy and queue full")
	case errors.Is(err, context.DeadlineExceeded):
		s.writeError(w, route, http.StatusGatewayTimeout, "deadline exceeded: "+err.Error())
	case errors.Is(err, context.Canceled):
		// Client went away; the status is for our own books.
		s.count(route, 499)
	default:
		s.writeError(w, route, http.StatusInternalServerError, err.Error())
	}
	return false
}

// begin performs the shared /v1 route preamble: drain check and in-flight
// accounting. It reports whether the request may proceed; the caller must
// defer the returned func when it does.
func (s *Server) begin(w http.ResponseWriter, route string) (func(), bool) {
	if s.draining.Load() {
		w.Header().Set("Connection", "close")
		s.writeError(w, route, http.StatusServiceUnavailable, "draining")
		return nil, false
	}
	s.inflight.Add(1)
	return func() { s.inflight.Add(-1) }, true
}

// handleLivez is pure process liveness: 200 from the first request the
// mux sees until the process exits, draining included — restarting a
// deliberately draining process would defeat the drain.
func (s *Server) handleLivez(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz is traffic-worthiness, the signal load balancers and the
// shard router's health loop act on: 503 while draining, and — in
// router mode — 503 while zero backends are healthy, because routed
// requests would all be degrading to local planning. /healthz is an
// alias of this route for pre-split compatibility.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	if s.router != nil && s.router.healthyCount() == 0 {
		http.Error(w, "no healthy backends", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}
