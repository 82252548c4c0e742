package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/export"
	"repro/internal/plancache"
	"repro/internal/resilience"
	"repro/internal/workload"
)

// startBackend runs a real backend server on cfg.Addr, a loopback port
// when empty, and tears it down with the test.
func startBackend(t *testing.T, cfg Config) *Server {
	s, _ := runBackend(t, cfg)
	return s
}

// runBackend is startBackend that also returns a stop func, which drains
// the server and waits for ListenAndServe to return. Stopping twice is
// harmless.
func runBackend(t *testing.T, cfg Config) (*Server, func()) {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := New(cfg)
	done := make(chan struct{})
	go func() {
		s.ListenAndServe(ctx)
		close(done)
	}()
	waitFor(t, func() bool { return s.Addr() != "" })
	stop := func() {
		cancel()
		<-done
	}
	t.Cleanup(stop)
	return s, stop
}

// startRouter builds a router server over the given backend addresses
// and waits until its health loop has found them (or not, when
// expectReady is false). A zero HealthInterval probes every 20 ms.
func startRouter(t *testing.T, cfg Config, expectReady bool) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = 20 * time.Millisecond
	}
	s := New(cfg)
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	if expectReady {
		waitFor(t, func() bool { return s.router.healthyCount() == len(cfg.Shards) })
	}
	return s, ts
}

// wantBytes is the single-process reference encoding for an instance:
// exactly what wrsn-plan -json writes.
func wantBytes(t *testing.T, in *core.Instance) []byte {
	t.Helper()
	planner, err := DefaultPlanner("", nil)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := planner.Plan(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := export.WriteSchedule(&buf, sched); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRouterFailoverBlackholedBackend is the satellite acceptance test:
// two backends, one blackholed at the transport layer, yet every request
// succeeds via retry/failover, with every schedule byte-identical to
// single-process serving. The blackholed backend is the rendezvous owner
// of the first request's key, so that request must fail over whichever
// loopback ports the backends drew.
func TestRouterFailoverBlackholedBackend(t *testing.T) {
	b1 := startBackend(t, Config{})
	b2 := startBackend(t, Config{})
	chaos := newChaosTripper(nil, chaosPlan{Seed: 1, LatencyBase: time.Millisecond})
	s, ts := startRouter(t, Config{
		Shards:    []string{b1.Addr(), b2.Addr()},
		Transport: chaos,
	}, true)

	planner, err := DefaultPlanner("", nil)
	if err != nil {
		t.Fatal(err)
	}
	name, opts := plancache.Identity(planner)
	prefs := s.router.rank(plancache.KeyOf(name, opts, testInstance(30, 2, 100)))
	dead, survivor := prefs[0].host, prefs[1].host
	chaos.Blackhole(dead, true)

	for i := 0; i < 8; i++ {
		in := testInstance(30+i, 2, int64(100+i))
		want := wantBytes(t, in)
		body, _ := json.Marshal(in)
		resp, got := postJSON(t, ts.URL+"/v1/plan", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, got)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("request %d: routed schedule differs from single-process encoding", i)
		}
		if d := resp.Header.Get("X-Plan-Degraded"); d != "" {
			t.Fatalf("request %d: degraded to local (%q) despite a live backend", i, d)
		}
		if be := resp.Header.Get("X-Plan-Backend"); be != survivor {
			t.Fatalf("request %d: answered by %q, want blackhole survivor %q", i, be, survivor)
		}
	}
	if s.router.retries.Load() == 0 {
		t.Error("no retries recorded despite a blackholed backend")
	}
	if s.router.failovers.Load() == 0 {
		t.Error("no failovers recorded despite a blackholed backend")
	}
	if n := chaos.Counts()["blackhole"]; n == 0 {
		t.Error("chaos transport recorded no blackhole hits")
	}
}

// chaosTopology is two real backends behind a router whose backend
// transport injects faults at seed 7: 15% of attempts are delayed by
// 2 ms * (1 + Exp(1)), 12% are reset and 12% are answered 503.
type chaosTopology struct {
	router   *Server
	url      string // the router's /v1/plan
	tripper  *chaosTripper
	backends [2]*Server
	stops    [2]func()
}

// startChaosTopology starts the backends and a router over them with
// cfg, waiting until the router sees both healthy.
func startChaosTopology(t *testing.T, cfg Config) *chaosTopology {
	t.Helper()
	topo := &chaosTopology{tripper: newChaosTripper(nil, chaosPlan{
		Seed:        7,
		LatencyRate: 0.15,
		LatencyBase: 2 * time.Millisecond,
		ResetRate:   0.12,
		Err5xxRate:  0.12,
	})}
	for i := range topo.backends {
		topo.backends[i], topo.stops[i] = runBackend(t, Config{})
		cfg.Shards = append(cfg.Shards, topo.backends[i].Addr())
	}
	cfg.Transport = topo.tripper
	s, ts := startRouter(t, cfg, true)
	topo.router, topo.url = s, ts.URL+"/v1/plan"
	return topo
}

// TestRouterChaosReplay checks that injected faults replay: two fresh
// topologies at one seed answer the same 48 sequential n=60 requests
// with 200, inject the same faults and drive the same router counters.
// The events are compared by their (key, attempt, kind) coordinates:
// hosts stay out, since the backends' ports differ between topologies.
// Breakers never trip and hedging is off, because open and half-open
// timing and hedge delays follow the wall clock, not the seed; a slow
// health interval keeps a late probe from flipping a verdict mid-run.
func TestRouterChaosReplay(t *testing.T) {
	type replay struct {
		digest string
		events int
		faults map[string]int64
		// The router's counters.
		retries, failovers, degraded, hedges, breakerOpens int64
	}
	run := func() replay {
		topo := startChaosTopology(t, Config{
			BreakerThreshold: 1 << 20,
			BreakerCooldown:  time.Hour,
			HealthInterval:   time.Second,
		})
		for i := 0; i < 48; i++ {
			body, err := json.Marshal(workload.RequestSet(60, 2, int64(i+1), 100))
			if err != nil {
				t.Fatal(err)
			}
			if resp, out := postJSON(t, topo.url, body); resp.StatusCode != http.StatusOK {
				t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, out)
			}
		}
		events := topo.tripper.Events()
		h := sha256.New()
		for _, e := range events {
			fmt.Fprintf(h, "%016x|%d|%s\n", e.Key, e.Attempt, e.Kind)
		}
		r := topo.router.router
		out := replay{
			digest:    hex.EncodeToString(h.Sum(nil)),
			events:    len(events),
			faults:    topo.tripper.Counts(),
			retries:   r.retries.Load(),
			failovers: r.failovers.Load(),
			degraded:  r.degraded.Load(),
			hedges:    r.hedges.Load(),
		}
		for _, b := range r.backends {
			out.breakerOpens += b.breaker.Opens()
		}
		return out
	}
	first, second := run(), run()
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("same seed diverged:\n%+v\n%+v", first, second)
	}
	if first.events == 0 || first.retries == 0 {
		t.Fatalf("no faults reached the router: %+v", first)
	}
	t.Logf("%d events %v, %d retries, %d failovers, %d degraded", first.events, first.faults, first.retries, first.failovers, first.degraded)
}

// TestRouterKillRevive hard-kills a backend mid-run and revives it: six
// clients send 120 requests over six n=60 instances; after 40
// completions backend 0, the owner of the first instance, is
// blackholed and drained, and after 80 it comes back on its address.
// Every request must answer 200 with the single-process bytes, and the
// survivor must answer some of the victim's keys: a router that never
// fails over would plan them locally instead.
func TestRouterKillRevive(t *testing.T) {
	const (
		requests = 120
		clients  = 6
		variants = 6
	)
	topo := startChaosTopology(t, Config{
		BreakerThreshold: 3,
		BreakerCooldown:  300 * time.Millisecond,
		HealthInterval:   50 * time.Millisecond,
	})
	planner, err := DefaultPlanner("", nil)
	if err != nil {
		t.Fatal(err)
	}
	name, opts := plancache.Identity(planner)
	bodies := make([][]byte, variants)
	want := make([][]byte, variants)
	owner := make([]string, variants)
	for v := range bodies {
		in := workload.RequestSet(60, 2, int64(v+1), 100)
		if bodies[v], err = json.Marshal(in); err != nil {
			t.Fatal(err)
		}
		want[v] = wantBytes(t, in)
		owner[v] = topo.router.router.rank(plancache.KeyOf(name, opts, in))[0].host
	}
	victim, survivor := 0, 1
	if topo.backends[0].Addr() != owner[0] {
		victim, survivor = 1, 0
	}
	victimAddr, survivorAddr := topo.backends[victim].Addr(), topo.backends[survivor].Addr()

	// Clients record outcomes only; the checks run once they are done.
	codes := make([]int, requests)
	same := make([]bool, requests)
	answeredBy := make([]string, requests)
	var next, done atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < requests; i = int(next.Add(1)) - 1 {
				v := i % variants
				resp, err := http.Post(topo.url, "application/json", bytes.NewReader(bodies[v]))
				if err == nil {
					body, rerr := io.ReadAll(resp.Body)
					resp.Body.Close()
					if rerr == nil {
						codes[i], same[i] = resp.StatusCode, bytes.Equal(body, want[v])
						answeredBy[i] = resp.Header.Get("X-Plan-Backend")
					}
				}
				done.Add(1)
			}
		}()
	}
	for done.Load() < requests/3 {
		time.Sleep(2 * time.Millisecond)
	}
	topo.tripper.Blackhole(victimAddr, true)
	killedAt := done.Load()
	topo.stops[victim]()
	for done.Load() < 2*requests/3 {
		time.Sleep(2 * time.Millisecond)
	}
	startBackend(t, Config{Addr: victimAddr})
	topo.tripper.Blackhole(victimAddr, false)
	wg.Wait()

	failedOver := 0
	for i := range codes {
		if codes[i] != http.StatusOK || !same[i] {
			t.Errorf("request %d: status %d, byte-identical %v; want 200 and the single-process bytes", i, codes[i], same[i])
		}
		if owner[i%variants] == victimAddr && answeredBy[i] == survivorAddr {
			failedOver++
		}
	}
	if killedAt >= 2*requests/3 {
		t.Errorf("the kill landed after %d completions, past the revival at %d", killedAt, 2*requests/3)
	}
	if failedOver == 0 {
		t.Error("the survivor answered none of the victim's requests")
	}
	r := topo.router.router
	t.Logf("killed at %d completions; %d of the victim's requests failed over; %d retries, %d failovers, %d degraded, %d breaker opens",
		killedAt, failedOver, r.retries.Load(), r.failovers.Load(), r.degraded.Load(),
		r.backends[0].breaker.Opens()+r.backends[1].breaker.Opens())
}

// TestRouterDegradedLocalFallback points the router at two dead
// backends: every request must still answer 200 with the byte-identical
// schedule, marked X-Plan-Degraded: local.
func TestRouterDegradedLocalFallback(t *testing.T) {
	s, ts := startRouter(t, Config{
		Shards:            []string{"127.0.0.1:1", "127.0.0.1:2"}, // nothing listens there
		RouterMaxAttempts: 2,
	}, false)

	in := testInstance(30, 2, 42)
	want := wantBytes(t, in)
	body, _ := json.Marshal(in)
	resp, got := postJSON(t, ts.URL+"/v1/plan", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	if resp.Header.Get("X-Plan-Degraded") != "local" {
		t.Fatalf("X-Plan-Degraded = %q, want \"local\"", resp.Header.Get("X-Plan-Degraded"))
	}
	if !bytes.Equal(got, want) {
		t.Fatal("degraded-local schedule differs from single-process encoding")
	}
	if s.router.degraded.Load() != 1 {
		t.Fatalf("degraded counter = %d, want 1", s.router.degraded.Load())
	}
}

// TestRouterHonorsRetryAfter checks the satellite contract: a backend's
// 429 Retry-After hint replaces the router's own backoff delay for the
// next attempt, capped by RetryAfterCap.
func TestRouterHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int32
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/readyz":
			io.WriteString(w, "ok")
		case "/v1/plan":
			switch calls.Add(1) {
			case 1:
				w.Header().Set("Retry-After", "1")
				w.WriteHeader(http.StatusTooManyRequests)
			case 2:
				w.Header().Set("Retry-After", "60") // confused backend: must be capped
				w.WriteHeader(http.StatusTooManyRequests)
			default:
				io.WriteString(w, "schedule-bytes")
			}
		default:
			http.NotFound(w, r)
		}
	}))
	defer backend.Close()

	s, ts := startRouter(t, Config{
		Shards:        []string{backend.Listener.Addr().String()},
		RetryAfterCap: 2 * time.Second,
		RouterBackoff: resilience.Backoff{Base: 50 * time.Millisecond, Max: 50 * time.Millisecond},
	}, true)

	var mu sync.Mutex
	var slept []time.Duration
	s.router.sleep = func(ctx context.Context, d time.Duration) error {
		mu.Lock()
		slept = append(slept, d)
		mu.Unlock()
		return nil
	}

	body, _ := json.Marshal(testInstance(20, 2, 9))
	resp, out := postJSON(t, ts.URL+"/v1/plan", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	if string(out) != "schedule-bytes" {
		t.Fatalf("body %q not proxied from the backend", out)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(slept) != 2 {
		t.Fatalf("recorded %d retry sleeps (%v), want 2", len(slept), slept)
	}
	if slept[0] != time.Second {
		t.Errorf("first retry slept %v, want the backend's 1s Retry-After hint", slept[0])
	}
	if slept[1] != 2*time.Second {
		t.Errorf("second retry slept %v, want the 2s RetryAfterCap, not the raw 60s hint", slept[1])
	}
}

// TestRetryAfterHintParsing unit-tests the header parsing and capping.
func TestRetryAfterHintParsing(t *testing.T) {
	r := &router{retryAfterCap: 2 * time.Second}
	cases := []struct {
		header string
		want   time.Duration
	}{
		{"", 0},
		{"1", time.Second},
		{" 2 ", 2 * time.Second},
		{"60", 2 * time.Second}, // capped
		{"-1", 0},
		{"soon", 0},
		{"Wed, 21 Oct 2015 07:28:00 GMT", 0}, // HTTP-date form: ignored, fall back to backoff
	}
	for _, tc := range cases {
		resp := &http.Response{Header: http.Header{}}
		if tc.header != "" {
			resp.Header.Set("Retry-After", tc.header)
		}
		if got := r.retryAfterHint(resp); got != tc.want {
			t.Errorf("Retry-After %q: hint = %v, want %v", tc.header, got, tc.want)
		}
	}
}

// TestRouterSingleflightCollapse pins the backend's planner and fires
// concurrent identical requests at the router: they must collapse into
// one upstream plan, all answering identical bytes.
func TestRouterSingleflightCollapse(t *testing.T) {
	bp := blockingPlanner{started: make(chan struct{}, 1), release: make(chan struct{})}
	b1 := startBackend(t, Config{
		NewPlanner: func(string, *core.Options) (core.Planner, error) { return bp, nil },
	})
	s, ts := startRouter(t, Config{Shards: []string{b1.Addr()}}, true)

	in := testInstance(25, 2, 77)
	body, _ := json.Marshal(in)

	const dup = 6
	var wg sync.WaitGroup
	codes := make([]int, dup)
	bodies := make([][]byte, dup)
	for i := 0; i < dup; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, out := postJSON(t, ts.URL+"/v1/plan", body)
			codes[i], bodies[i] = resp.StatusCode, out
		}(i)
	}
	<-bp.started
	// Wait until the duplicates have joined the flight, then release.
	waitFor(t, func() bool { return s.inflight.Load() >= dup })
	time.Sleep(20 * time.Millisecond)
	close(bp.release)
	wg.Wait()

	for i := 0; i < dup; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("caller %d: status %d", i, codes[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("caller %d: body differs from caller 0", i)
		}
	}
	if s.router.collapsed.Load() == 0 {
		t.Error("no singleflight collapses recorded for identical concurrent requests")
	}
	// The backend must have planned exactly once.
	resp, err := http.Get("http://" + b1.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	metrics, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(metrics), `wrsn_serve_http_requests_total{route="plan",code="200"} 1`) {
		t.Error("backend served more than one plan for a collapsed herd")
	}
}

// TestRouterHedgedRequest makes the key's owning backend slow and checks
// the router hedges to the other backend after the p99-derived delay and
// uses its answer.
func TestRouterHedgedRequest(t *testing.T) {
	mkSlow := func(slow *atomic.Bool) func(string, *core.Options) (core.Planner, error) {
		return func(name string, opts *core.Options) (core.Planner, error) {
			p, err := DefaultPlanner(name, opts)
			if err != nil {
				return nil, err
			}
			return slowPlanner{p: p, slow: slow}, nil
		}
	}
	var slow1, slow2 atomic.Bool
	b1 := startBackend(t, Config{NewPlanner: mkSlow(&slow1)})
	b2 := startBackend(t, Config{NewPlanner: mkSlow(&slow2)})
	s, ts := startRouter(t, Config{
		Shards:        []string{b1.Addr(), b2.Addr()},
		HedgeQuantile: 0.99,
	}, true)

	// Warm the latency histogram past hedgeMinSamples with fast probes.
	for i := 0; i < 40; i++ {
		s.router.hist.Observe(2 * time.Millisecond)
	}

	// Find which backend owns this instance's key, and make it slow.
	in := testInstance(30, 2, 5)
	planner, _ := DefaultPlanner("", nil)
	name, opts := plancache.Identity(planner)
	key := plancache.KeyOf(name, opts, in)
	owner := s.router.rank(key)[0].host
	if owner == b1.Addr() {
		slow1.Store(true)
	} else {
		slow2.Store(true)
	}

	body, _ := json.Marshal(in)
	resp, out := postJSON(t, ts.URL+"/v1/plan", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	if !bytes.Equal(out, wantBytes(t, in)) {
		t.Fatal("hedged response differs from single-process encoding")
	}
	if got := resp.Header.Get("X-Plan-Backend"); got == owner {
		t.Errorf("answered by the slow owner %q; hedge should have won", got)
	}
	if s.router.hedges.Load() == 0 {
		t.Error("no hedge launched despite a slow primary")
	}
	if s.router.hedgeWins.Load() == 0 {
		t.Error("hedge launched but its win was not recorded")
	}
}

// slowPlanner delays planning while its flag is set.
type slowPlanner struct {
	p    core.Planner
	slow *atomic.Bool
}

func (s slowPlanner) Name() string { return s.p.Name() }

func (s slowPlanner) Plan(ctx context.Context, in *core.Instance) (*core.Schedule, error) {
	if s.slow.Load() {
		select {
		case <-time.After(2 * time.Second):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return s.p.Plan(ctx, in)
}

// TestLivezReadyzSplit covers the health-endpoint satellite: /livez is
// process liveness (200 even while draining), /readyz is
// traffic-worthiness (503 while draining, 503 in router mode with zero
// healthy backends), and /healthz aliases /readyz.
func TestLivezReadyzSplit(t *testing.T) {
	get := func(t *testing.T, url string) int {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}

	t.Run("serving", func(t *testing.T) {
		s := New(Config{})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		for _, route := range []string{"/livez", "/readyz", "/healthz"} {
			if code := get(t, ts.URL+route); code != http.StatusOK {
				t.Errorf("%s = %d, want 200", route, code)
			}
		}
	})

	t.Run("draining", func(t *testing.T) {
		s := New(Config{})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		s.draining.Store(true)
		if code := get(t, ts.URL+"/livez"); code != http.StatusOK {
			t.Errorf("/livez = %d while draining, want 200 (liveness is not readiness)", code)
		}
		for _, route := range []string{"/readyz", "/healthz"} {
			if code := get(t, ts.URL+route); code != http.StatusServiceUnavailable {
				t.Errorf("%s = %d while draining, want 503", route, code)
			}
		}
	})

	t.Run("router with zero healthy backends", func(t *testing.T) {
		_, ts := startRouter(t, Config{Shards: []string{"127.0.0.1:1"}}, false)
		if code := get(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable {
			t.Errorf("/readyz = %d with all backends down, want 503", code)
		}
		if code := get(t, ts.URL+"/livez"); code != http.StatusOK {
			t.Errorf("/livez = %d with all backends down, want 200", code)
		}
	})

	t.Run("router becomes ready when a backend appears", func(t *testing.T) {
		b1 := startBackend(t, Config{})
		s, ts := startRouter(t, Config{Shards: []string{b1.Addr()}}, true)
		if code := get(t, ts.URL+"/readyz"); code != http.StatusOK {
			t.Errorf("/readyz = %d with a healthy backend, want 200", code)
		}
		_ = s
	})
}

// TestRouterMetricsExposed checks the router metric families surface.
func TestRouterMetricsExposed(t *testing.T) {
	b1 := startBackend(t, Config{})
	_, ts := startRouter(t, Config{Shards: []string{b1.Addr()}}, true)
	body, _ := json.Marshal(testInstance(20, 2, 11))
	if resp, out := postJSON(t, ts.URL+"/v1/plan", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("plan: %d %s", resp.StatusCode, out)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	text := string(raw)
	for _, want := range []string{
		"wrsn_serve_router_routed_total 1",
		"wrsn_serve_router_degraded_local_total 0",
		"wrsn_serve_router_retries_total",
		"wrsn_serve_router_hedges_total",
		"wrsn_serve_router_collapsed_total",
		fmt.Sprintf("wrsn_serve_router_backend_healthy{backend=%q} 1", b1.Addr()),
		fmt.Sprintf("wrsn_serve_router_breaker_state{backend=%q} 0", b1.Addr()),
		"wrsn_serve_router_latency_p99_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
