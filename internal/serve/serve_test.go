package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/export"
	"repro/internal/geom"
	"repro/internal/registry"
)

// testInstance builds the same planning regime wrsn-plan synthesizes:
// sensors uniform in a 100x100 field with charge durations in
// [1.2 h, 1.5 h].
func testInstance(n, k int, seed int64) *core.Instance {
	rng := rand.New(rand.NewSource(seed))
	in := &core.Instance{Depot: geom.Pt(50, 50), Gamma: 2.7, Speed: 1, K: k}
	for i := 0; i < n; i++ {
		in.Requests = append(in.Requests, core.Request{
			Pos:      geom.Pt(rng.Float64()*100, rng.Float64()*100),
			Duration: (1.2 + 0.3*rng.Float64()) * 3600,
			Lifetime: (1 + rng.Float64()*6) * 86400,
		})
	}
	return in
}

func postJSON(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// TestPlanGoldenByteIdentity is the tentpole acceptance test: the
// /v1/plan response body must be byte-for-byte the canonical schedule
// encoding the offline path (wrsn-plan -json) produces for the same
// instance — cold through the planner and warm through the cache.
func TestPlanGoldenByteIdentity(t *testing.T) {
	in := testInstance(60, 2, 1)

	// Offline reference: the default planner through the shared encoder.
	planner, err := DefaultPlanner("", nil)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := planner.Plan(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := export.WriteSchedule(&want, sched); err != nil {
		t.Fatal(err)
	}

	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	for round, wantCache := range []string{"miss", "hit"} {
		resp, got := postJSON(t, ts.URL+"/v1/plan", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("round %d: status %d: %s", round, resp.StatusCode, got)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("round %d: response is not byte-identical to the offline encoding\nserve: %q\noffline: %q",
				round, truncate(got), truncate(want.Bytes()))
		}
		if c := resp.Header.Get("X-Plan-Cache"); c != wantCache {
			t.Errorf("round %d: X-Plan-Cache = %q, want %q", round, c, wantCache)
		}
		if p := resp.Header.Get("X-Planner"); p != "Appro" {
			t.Errorf("round %d: X-Planner = %q", round, p)
		}
	}
}

func truncate(b []byte) string {
	if len(b) > 200 {
		return string(b[:200]) + "..."
	}
	return string(b)
}

// TestPlanEnvelope exercises the envelope form: named planner, Appro
// options, per-request timeout, and the ?planner= override.
func TestPlanEnvelope(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	in := testInstance(40, 2, 2)
	env := PlanRequest{Planner: "K-EDF", Instance: in, TimeoutMS: 30000}
	body, _ := json.Marshal(env)
	resp, out := postJSON(t, ts.URL+"/v1/plan", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	if p := resp.Header.Get("X-Planner"); p != "K-EDF" {
		t.Errorf("X-Planner = %q, want K-EDF", p)
	}
	var sched core.Schedule
	if err := json.Unmarshal(out, &sched); err != nil {
		t.Fatalf("response is not a schedule: %v", err)
	}
	if len(sched.Tours) != in.K {
		t.Errorf("got %d tours, want %d", len(sched.Tours), in.K)
	}

	// BiLevel's seed shapes the plan: an options request must still plan.
	env = PlanRequest{Planner: "BiLevel", Instance: in, Options: &core.Options{Seed: 3}}
	body, _ = json.Marshal(env)
	if resp, out = postJSON(t, ts.URL+"/v1/plan", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("options plan: status %d: %s", resp.StatusCode, out)
	}

	// Query override beats the envelope.
	env = PlanRequest{Planner: "Appro", Instance: in}
	body, _ = json.Marshal(env)
	resp, _ = postJSON(t, ts.URL+"/v1/plan?planner=NETWRAP", body)
	if p := resp.Header.Get("X-Planner"); p != "NETWRAP" {
		t.Errorf("X-Planner = %q, want NETWRAP (query override)", p)
	}
}

// badPlanBodies are /v1/plan bodies that must each be answered 400, in
// TestPlanBadRequests and, never indexed, in TestBodyIndexMatchesUncached.
var badPlanBodies = []struct {
	name string
	body string
}{
	{"garbage", `{"nope": 1}`},
	{"empty object", `{}`},
	{"zero K", `{"depot":{"x":0,"y":0},"gamma":2.7,"speed":1,"k":0}`},
	{"unknown planner", `{"planner":"Dijkstra","instance":{"depot":{"x":0,"y":0},"gamma":2.7,"speed":1,"k":1}}`},
	{"trailing garbage", `{"depot":{"x":0,"y":0},"gamma":2.7,"speed":1,"k":1} tail`},
	{"trailing bracket", `{"depot":{"x":0,"y":0},"gamma":2.7,"speed":1,"k":1}]}`},
	{"trailing brace", `{"instance":{"depot":{"x":0,"y":0},"gamma":2.7,"speed":1,"k":1}}}`},
	// Valid instances whose plan times overflow to +Inf: the schedule
	// has no JSON encoding. Each is posted twice: a plan without bytes is
	// not cached, so the second post replans and answers the same 400.
	{"overflowing durations (miss)", overflowDurations},
	{"overflowing durations (hit)", overflowDurations},
	{"overflowing distance (miss)", overflowDistance},
	{"overflowing distance (hit)", overflowDistance},
	// Options fields that no longer exist are unknown fields.
	{"retired Sparse option", `{"instance":{"depot":{"x":0,"y":0},"gamma":2.7,"speed":1,"k":1},"options":{"Sparse":{"MST":1}}}`},
	{"retired MISRescan option", `{"instance":{"depot":{"x":0,"y":0},"gamma":2.7,"speed":1,"k":1},"options":{"MISRescan":true}}`},
	{"retired TourBuilder option", `{"instance":{"depot":{"x":0,"y":0},"gamma":2.7,"speed":1,"k":1},"options":{"TourBuilder":2}}`},
	{"retired TourRestarts option", `{"instance":{"depot":{"x":0,"y":0},"gamma":2.7,"speed":1,"k":1},"options":{"TourRestarts":4}}`},
	{"retired Workers option", `{"instance":{"depot":{"x":0,"y":0},"gamma":2.7,"speed":1,"k":1},"options":{"Workers":2}}`},
	// Appro's retired knobs, at values that were legal before.
	{"retired MISOrder option", `{"instance":{"depot":{"x":0,"y":0},"gamma":2.7,"speed":1,"k":1},"options":{"MISOrder":3}}`},
	{"retired NoSortByFinishTime option", `{"instance":{"depot":{"x":0,"y":0},"gamma":2.7,"speed":1,"k":1},"options":{"NoSortByFinishTime":false}}`},
	{"retired MISOrder beside Seed", `{"planner":"BiLevel","instance":{"depot":{"x":0,"y":0},"gamma":2.7,"speed":1,"k":1},"options":{"Seed":1,"MISOrder":3}}`},
}

func TestPlanBadRequests(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, tc := range badPlanBodies {
		resp, out := postJSON(t, ts.URL+"/v1/plan", []byte(tc.body))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, out)
		}
		var e errorResponse
		if err := json.Unmarshal(out, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body %q is not an errorResponse", tc.name, out)
		}
		if strings.HasPrefix(tc.name, "overflowing") && !strings.Contains(e.Error, "+Inf") {
			t.Errorf("%s: error %q does not name the non-finite value", tc.name, e.Error)
		}
		if tc.name == "unknown planner" {
			// The 400 body must name every valid planner (satellite of the
			// registry contract): the client can self-serve the fix.
			for _, name := range registry.Names() {
				if !strings.Contains(e.Error, name) {
					t.Errorf("unknown-planner 400 body %q does not list %q", e.Error, name)
				}
			}
		}
	}
	if st := s.cache.Stats(); st.Hits != 0 || st.Puts != 0 {
		t.Errorf("plan cache hits = %d, puts = %d, want none: a 400 has no bytes to cache", st.Hits, st.Puts)
	}
}

// Bodies that pass Validate but whose plans overflow float64.
const (
	overflowDurations = `{"depot":{"x":0,"y":0},"requests":[{"pos":{"x":1,"y":1},"duration":1e308},{"pos":{"x":50,"y":50},"duration":1e308}],"gamma":2.7,"speed":1,"k":1}`
	overflowDistance  = `{"depot":{"x":-1e308,"y":0},"requests":[{"pos":{"x":1e308,"y":0},"duration":60}],"gamma":2.7,"speed":1,"k":1}`
)

// TestPlannerAliasResolution plans through aliased and lowercased
// ?planner= spellings and checks the canonical planner answers (the
// X-Planner header) — the registry's case-insensitive resolution as seen
// over HTTP.
func TestPlannerAliasResolution(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, err := json.Marshal(testInstance(20, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	for spelling, want := range map[string]string{
		"bilevel": "BiLevel", "BLM": "BiLevel", "kedf": "K-EDF", "k-minmax": "K-minMax", "APPRO": "Appro",
	} {
		resp, out := postJSON(t, ts.URL+"/v1/plan?planner="+spelling, body)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("?planner=%s: status %d (%s)", spelling, resp.StatusCode, out)
			continue
		}
		if got := resp.Header.Get("X-Planner"); got != want {
			t.Errorf("?planner=%s: X-Planner %q, want %q", spelling, got, want)
		}
	}
}

// TestPlannersEndpoint checks GET /v1/planners serves the registry
// listing: every registered planner, registration order, default marked.
func TestPlannersEndpoint(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/planners")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%s)", resp.StatusCode, out)
	}
	var infos []registry.Info
	if err := json.Unmarshal(out, &infos); err != nil {
		t.Fatalf("body %q: %v", out, err)
	}
	want := registry.Names()
	if len(infos) != len(want) {
		t.Fatalf("listing has %d planners, registry %d", len(infos), len(want))
	}
	for i, info := range infos {
		if info.Name != want[i] {
			t.Errorf("listing[%d] = %q, want %q", i, info.Name, want[i])
		}
		if info.Default != (i == 0) {
			t.Errorf("listing[%d].Default = %v", i, info.Default)
		}
	}
}

// blockingPlanner signals when a plan starts and holds it until released,
// then delegates to the real default planner. It lets tests pin a request
// in flight deterministically.
type blockingPlanner struct {
	started chan struct{}
	release chan struct{}
}

func (p blockingPlanner) Name() string { return "slow" }

func (p blockingPlanner) Plan(ctx context.Context, in *core.Instance) (*core.Schedule, error) {
	select {
	case p.started <- struct{}{}:
	default:
	}
	select {
	case <-p.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return core.ApproPlanner{}.Plan(ctx, in)
}

// TestPlanSaturation429 drives the admission pool past workers+queue and
// checks the overflow request is shed with 429 and a Retry-After hint.
// TestPoolSize checks the sizes wrsn-serve logs at startup: the pool's
// worker slots and queue depth after Config's defaults, not the raw
// settings.
func TestPoolSize(t *testing.T) {
	for _, c := range []struct {
		cfg            Config
		workers, queue int
	}{
		{Config{}, runtime.GOMAXPROCS(0), DefaultQueueDepth},
		{Config{Workers: -2, QueueDepth: -1}, runtime.GOMAXPROCS(0), 0},
		{Config{Workers: 3, QueueDepth: 5}, 3, 5},
	} {
		if w, q := New(c.cfg).PoolSize(); w != c.workers || q != c.queue {
			t.Errorf("Workers=%d QueueDepth=%d: PoolSize = (%d, %d), want (%d, %d)",
				c.cfg.Workers, c.cfg.QueueDepth, w, q, c.workers, c.queue)
		}
	}
}

func TestPlanSaturation429(t *testing.T) {
	bp := blockingPlanner{started: make(chan struct{}, 4), release: make(chan struct{})}
	s := New(Config{
		Workers:    1,
		QueueDepth: -1, // no queue: overflow rejects as soon as the worker is busy
		RetryAfter: 2 * time.Second,
		NewPlanner: func(string, *core.Options) (core.Planner, error) { return bp, nil },
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(testInstance(20, 2, 3))
	firstDone := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/plan", "application/json", bytes.NewReader(body))
		if err != nil {
			firstDone <- -1
			return
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		firstDone <- resp.StatusCode
	}()
	select {
	case <-bp.started:
	case <-time.After(5 * time.Second):
		t.Fatal("first plan never started")
	}

	// Use a distinct instance so the overflow request cannot be served
	// from the cache fast path.
	body2, _ := json.Marshal(testInstance(21, 2, 4))
	resp, out := postJSON(t, ts.URL+"/v1/plan", body2)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow status = %d, want 429 (%s)", resp.StatusCode, out)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", ra)
	}

	close(bp.release)
	if code := <-firstDone; code != http.StatusOK {
		t.Fatalf("in-flight request finished with %d, want 200", code)
	}
}

// TestPlanDeadline504 maps an expired per-request deadline to 504. The
// planner blocks until the deadline fires (never released), so the test
// is deterministic at any machine speed.
func TestPlanDeadline504(t *testing.T) {
	bp := blockingPlanner{started: make(chan struct{}, 1), release: make(chan struct{})}
	s := New(Config{
		CacheCapacity: -1,
		NewPlanner:    func(string, *core.Options) (core.Planner, error) { return bp, nil },
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	env := PlanRequest{Instance: testInstance(400, 2, 5), TimeoutMS: 1}
	body, _ := json.Marshal(env)
	resp, out := postJSON(t, ts.URL+"/v1/plan", body)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (%s)", resp.StatusCode, out)
	}
}

// TestGracefulDrainSIGTERM is the drain acceptance test: with requests
// pinned in flight, SIGTERM must flip /readyz (and its /healthz alias)
// and new /v1 requests to 503 — while /livez stays 200, since the
// process is still alive — every in-flight request runs to a normal
// 200 carrying its schedule's bytes, and ListenAndServe must return
// nil: zero dropped in-flight requests. It pins one request on two
// workers, four distinct instances on four workers, and six distinct
// instances routed through a shard router whose backend holds them:
// the router is the server that drains.
func TestGracefulDrainSIGTERM(t *testing.T) {
	for _, tc := range []struct {
		pinned, workers int
		routed          bool
	}{{1, 2, false}, {4, 4, false}, {6, 6, true}} {
		name := fmt.Sprintf("pinned=%d", tc.pinned)
		if tc.routed {
			name = "router/" + name
		}
		t.Run(name, func(t *testing.T) {
			testGracefulDrain(t, tc.pinned, tc.workers, tc.routed)
		})
	}
}

func testGracefulDrain(t *testing.T, pinned, workers int, routed bool) {
	bp := blockingPlanner{started: make(chan struct{}, pinned), release: make(chan struct{})}
	cfg := Config{
		Addr:         "127.0.0.1:0",
		Workers:      workers,
		DrainTimeout: 20 * time.Second,
		NewPlanner:   func(string, *core.Options) (core.Planner, error) { return bp, nil },
	}
	// Routed, the blocking planner runs on the backend, and the router
	// keeps the default planner: a request the router failed to route
	// would plan locally, never signal bp.started, and carry no
	// X-Plan-Backend header.
	wantBackend := ""
	if routed {
		b := startBackend(t, cfg)
		wantBackend = b.Addr()
		cfg = Config{Addr: "127.0.0.1:0", Shards: []string{wantBackend},
			HealthInterval: 20 * time.Millisecond, DrainTimeout: 20 * time.Second}
	}
	s := New(cfg)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.ListenAndServe(ctx) }()
	waitFor(t, func() bool { return s.Addr() != "" })
	if routed {
		waitFor(t, func() bool { return s.router.healthyCount() == 1 })
	}
	base := "http://" + s.Addr()

	// Pin the requests in flight, each on its own instance.
	type answer struct {
		i, code int
		backend string
		body    []byte
	}
	inflight := make(chan answer, pinned)
	instances := make([]*core.Instance, pinned)
	for i := range instances {
		instances[i] = testInstance(30+i, 2, int64(6+i))
		body, _ := json.Marshal(instances[i])
		go func() {
			resp, err := http.Post(base+"/v1/plan", "application/json", bytes.NewReader(body))
			if err != nil {
				inflight <- answer{i: i, code: -1}
				return
			}
			defer resp.Body.Close()
			out, _ := io.ReadAll(resp.Body)
			inflight <- answer{i, resp.StatusCode, resp.Header.Get("X-Plan-Backend"), out}
		}()
	}
	for i := 0; i < pinned; i++ {
		select {
		case <-bp.started:
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d in-flight plans started", i, pinned)
		}
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitFor(t, s.draining.Load)

	// New work is refused while the in-flight requests still run:
	// readiness (and its legacy /healthz alias) reports 503, but the
	// process is still live for the orchestrator.
	for route, want := range map[string]int{
		"/readyz":  http.StatusServiceUnavailable,
		"/healthz": http.StatusServiceUnavailable,
		"/livez":   http.StatusOK,
	} {
		resp, err := http.Get(base + route)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("draining %s = %d, want %d", route, resp.StatusCode, want)
		}
	}
	body, _ := json.Marshal(testInstance(29, 2, 5))
	resp, out := postJSON(t, base+"/v1/plan", body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining /v1/plan = %d, want 503 (%s)", resp.StatusCode, out)
	}

	// Release the pinned requests: each must finish with a clean 200
	// and its schedule's bytes.
	close(bp.release)
	for i := 0; i < pinned; i++ {
		select {
		case a := <-inflight:
			if a.code != http.StatusOK || a.backend != wantBackend {
				t.Fatalf("in-flight request %d finished with %d from backend %q, want 200 from %q",
					a.i, a.code, a.backend, wantBackend)
			}
			if !bytes.Equal(a.body, wantBytes(t, instances[a.i])) {
				t.Fatalf("in-flight request %d: schedule bytes differ from the single-process encoding", a.i)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("%d of %d in-flight requests finished", i, pinned)
		}
	}
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("ListenAndServe returned %v after drain, want nil", err)
		}
	case <-time.After(25 * time.Second):
		t.Fatal("server never finished draining")
	}
}

// TestServerTimeouts checks that the http.Server ListenAndServe runs
// carries read and idle timeouts, and that a raw TCP client that stalls
// mid-headers is disconnected once the header timeout passes instead of
// holding its connection indefinitely.
func TestServerTimeouts(t *testing.T) {
	s := New(Config{Addr: "127.0.0.1:0"})
	hs := s.httpServer()
	if hs.ReadHeaderTimeout != readHeaderTimeout || hs.ReadTimeout != readTimeout || hs.IdleTimeout != idleTimeout {
		t.Fatalf("server timeouts header %v, read %v, idle %v; want %v, %v, %v",
			hs.ReadHeaderTimeout, hs.ReadTimeout, hs.IdleTimeout, readHeaderTimeout, readTimeout, idleTimeout)
	}
	if readHeaderTimeout <= 0 || idleTimeout <= 0 {
		t.Fatal("header and idle timeouts must be set")
	}
	// The default body limit must arrive within the read timeout at a
	// modest 128 KiB/s.
	if need := time.Duration(float64(32<<20) / (128 << 10) * float64(time.Second)); readTimeout < need {
		t.Fatalf("read timeout %v cuts a 32 MiB body at 128 KiB/s (needs %v)", readTimeout, need)
	}

	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.ListenAndServe(ctx) }()
	waitFor(t, func() bool { return s.Addr() != "" })

	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /v1/plan HTTP/1.1\r\nHost: stalled\r\nContent-Length: 10\r\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := conn.SetReadDeadline(start.Add(readHeaderTimeout + 10*time.Second)); err != nil {
		t.Fatal(err)
	}
	n, err := conn.Read(make([]byte, 512))
	var ne net.Error
	switch {
	case errors.As(err, &ne) && ne.Timeout():
		t.Fatalf("client stalled mid-headers still connected after %v", time.Since(start))
	case err == nil:
		t.Fatalf("server answered %d bytes to an unfinished request", n)
	}
	if d := time.Since(start); d < readHeaderTimeout/2 {
		t.Errorf("connection closed after %v, before the %v header timeout", d, readHeaderTimeout)
	}

	cancel()
	if err := <-serveDone; err != nil {
		t.Fatalf("ListenAndServe returned %v", err)
	}
}

// waitPlanner holds each plan for wait, then plans with the default
// planner; a context that ends first fails the plan with its error.
type waitPlanner struct{ wait time.Duration }

func (p waitPlanner) Name() string { return "Appro" }

func (p waitPlanner) Plan(ctx context.Context, in *core.Instance) (*core.Schedule, error) {
	select {
	case <-time.After(p.wait):
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return core.ApproPlanner{}.Plan(ctx, in)
}

// TestContextOutlivesReadTimeout checks that a request's context stays
// live once its body is read: the server's read timeout bounds the
// read, not the plan or the simulation after it. The test shortens the
// read timeout so that a plan outlasts it.
func TestContextOutlivesReadTimeout(t *testing.T) {
	const readTimeout = 100 * time.Millisecond
	s := New(Config{
		CacheCapacity: -1,
		NewPlanner: func(string, *core.Options) (core.Planner, error) {
			return waitPlanner{wait: 3 * readTimeout}, nil
		},
	})
	defer s.Close()
	hs := s.httpServer()
	hs.ReadTimeout = readTimeout
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		hs.Close()
		if err := <-served; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve returned %v", err)
		}
	}()

	plan, err := json.Marshal(PlanRequest{Instance: testInstance(40, 2, 3)})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ path, body string }{
		{"/v1/plan", string(plan)},
		{"/v1/simulate", `{"n": 40, "k": 2, "duration_days": 10, "max_rounds": 1}`},
	} {
		resp, out := postJSON(t, "http://"+ln.Addr().String()+c.path, []byte(c.body))
		if resp.StatusCode != http.StatusOK || !json.Valid(out) {
			t.Errorf("%s: status %d, body %q; want 200 and the answer", c.path, resp.StatusCode, truncate(out))
		}
	}
}

func TestSimulateEndpoint(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := SimulateRequest{N: 40, Seed: 1, K: 2, DurationDays: 20, MaxRounds: 3, Verify: true}
	body, _ := json.Marshal(req)
	resp, out := postJSON(t, ts.URL+"/v1/simulate", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	var sr SimulateResponse
	if err := json.Unmarshal(out, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Planner != "Appro" || sr.Rounds < 1 || sr.Charges < 1 {
		t.Errorf("implausible summary: %+v", sr)
	}
	if sr.Violations != 0 {
		t.Errorf("%d violations: %s", sr.Violations, sr.FirstViolation)
	}

	for _, tc := range []struct{ name, body string }{
		{"retired MISOrder option", `{"n":40,"seed":1,"options":{"MISOrder":3}}`},
		{"retired NoSortByFinishTime option", `{"n":40,"seed":1,"options":{"NoSortByFinishTime":false}}`},
		{"retired Workers option", `{"n":40,"seed":1,"options":{"Workers":2}}`},
		{"trailing bracket", `{"n":40,"seed":1}]`},
	} {
		if resp, out := postJSON(t, ts.URL+"/v1/simulate", []byte(tc.body)); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, out)
		}
	}
}

// TestSimulateLeavesPlanCache checks that /v1/simulate does not write
// its rounds into the plan cache: a month-long simulation replans every
// round from fresh residual energies, and each round would evict a
// /v1/plan answer that is likely to repeat.
func TestSimulateLeavesPlanCache(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	bodies := make([][]byte, 10)
	for i := range bodies {
		body, err := json.Marshal(testInstance(60, 2, int64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		if rec := postPlan(h, "", body); rec.Code != http.StatusOK {
			t.Fatalf("plan %d: status %d (%s)", i, rec.Code, rec.Body.Bytes())
		}
		bodies[i] = body
	}
	before := s.cache.Stats()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/simulate",
		strings.NewReader(`{"n":200,"seed":1,"k":2,"duration_days":30}`)))
	var sr SimulateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sr); rec.Code != http.StatusOK || err != nil || sr.Rounds < 2 {
		t.Fatalf("simulate: status %d, %d rounds (%s)", rec.Code, sr.Rounds, truncate(rec.Body.Bytes()))
	}

	for i, body := range bodies {
		if c := postPlan(h, "", body).Header().Get("X-Plan-Cache"); c != "hit" {
			t.Errorf("plan %d after a %d-round simulation: X-Plan-Cache %q, want hit", i, sr.Rounds, c)
		}
	}
	after := s.cache.Stats()
	if after.BodyHits-before.BodyHits != 10 || after.Puts != before.Puts || after.Evictions != before.Evictions {
		t.Errorf("stats %+v after the simulation and the repeats, %+v before: want 10 body-index hits and no put or eviction", after, before)
	}
}

// TestMetricsEndpoint checks that a served plan surfaces in every metric
// family: HTTP outcomes, pool, cache, and the engine's obs stage spans.
func TestMetricsEndpoint(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(testInstance(30, 2, 7))
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
		`wrsn_serve_http_requests_total{route="plan",code="200"} 1`,
		`wrsn_serve_pool_completed_total 1`,
		`wrsn_serve_plancache_misses_total 1`,
		`wrsn_serve_plancache_size 1`,
		`wrsn_serve_stage_seconds_total{stage="charging-graph"}`,
		`wrsn_serve_stage_spans_total{stage="insertion"} 1`,
		`wrsn_serve_engine_counter_total{name="cache.misses"}`,
		"wrsn_serve_uptime_seconds",
		"wrsn_serve_draining 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestPprofMounted(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof cmdline = %d", resp.StatusCode)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
