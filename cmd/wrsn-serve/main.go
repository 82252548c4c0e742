// Command wrsn-serve runs the planning engine as an HTTP/JSON service:
// POST /v1/plan plans charging tours for an instance (byte-identical to
// `wrsn-plan -json`), POST /v1/simulate runs the evaluation protocol,
// and /livez, /readyz, /metrics and /debug/pprof expose operational
// state. SIGTERM or SIGINT triggers a graceful drain: in-flight
// requests finish, new ones get 503, then the listener closes.
//
// Usage:
//
//	wrsn-serve -addr :8080 -workers 4 -queue 64
//	wrsn-plan -n 400 -dump-instance inst.json
//	curl -s -d @inst.json localhost:8080/v1/plan
//
// With -shards the process becomes a router: /v1/plan requests are
// consistent-hashed across the named backends with retries, per-backend
// circuit breakers, optional hedging, and fallback to local planning
// (X-Plan-Degraded: local) when no backend can answer:
//
//	wrsn-serve -addr :8080 -shards host1:8081,host2:8081
//
// The -loadgen mode benchmarks the service against itself: it starts an
// in-process server (or router, with -shards), drives it from
// concurrent clients recording an HDR-style latency histogram, then
// triggers a drain with requests still in flight and verifies none are
// dropped. Adding -chaos runs the HTTP fault drill on top: a
// deterministic fault-replay phase (same -chaos-seed, same injected
// fault sequence, byte for byte) and a kill/revive phase that hard-kills
// one of two backends mid-run and requires availability >= 99% with
// every schedule byte-identical to single-process planning. Results go
// to BENCH_serve.json.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/export"
	"repro/internal/resilience"
	"repro/internal/serve"
	"repro/internal/workload"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		workers      = flag.Int("workers", 0, "concurrent planning workers (0 = GOMAXPROCS)")
		queue        = flag.Int("queue", serve.DefaultQueueDepth, "admission queue depth; requests beyond workers+queue get 429 (negative = no queue)")
		cacheCap     = flag.Int("cache-cap", 0, "plan cache capacity in entries (0 = default, negative = disabled)")
		defTimeout   = flag.Duration("default-timeout", 30*time.Second, "planning deadline for requests that name none")
		maxTimeout   = flag.Duration("max-timeout", 5*time.Minute, "upper bound on client-requested deadlines")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long a graceful drain waits for in-flight requests")
		shards       = flag.String("shards", "", "comma-separated backend addresses; route /v1/plan across them with consistent hashing, retries and circuit breakers")
		hedge        = flag.Float64("hedge-quantile", 0, "router: launch a hedged second request after this latency quantile (0 = off, e.g. 0.99)")

		loadgen     = flag.Bool("loadgen", false, "run the self-benchmark instead of serving, writing results to -bench-out")
		n           = flag.Int("n", 200, "loadgen: requests per planning instance")
		k           = flag.Int("k", 2, "loadgen: chargers per planning instance")
		reqs        = flag.Int("requests", 200, "loadgen: total /v1/plan requests in the sustained phase")
		concurrency = flag.Int("concurrency", 8, "loadgen: concurrent client connections")
		variants    = flag.Int("variants", 4, "loadgen: distinct instances cycled through (1 = pure cache-hit load)")
		benchOut    = flag.String("bench-out", "BENCH_serve.json", "loadgen: output file")
		chaos       = flag.Bool("chaos", false, "loadgen: run the HTTP chaos drill (deterministic fault replay + backend kill/revive)")
		chaosSeed   = flag.Int64("chaos-seed", 7, "loadgen: chaos fault-plan seed; same seed, same injected fault sequence")
	)
	flag.Parse()

	cfg := serve.Config{
		Addr:           *addr,
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheCapacity:  *cacheCap,
		DefaultTimeout: *defTimeout,
		MaxTimeout:     *maxTimeout,
		DrainTimeout:   *drainTimeout,
		HedgeQuantile:  *hedge,
	}
	if *shards != "" {
		for _, sh := range strings.Split(*shards, ",") {
			if sh = strings.TrimSpace(sh); sh != "" {
				cfg.Shards = append(cfg.Shards, sh)
			}
		}
	}
	if *loadgen {
		if err := runLoadgen(cfg, *n, *k, *reqs, *concurrency, *variants, *benchOut, *chaos, *chaosSeed); err != nil {
			fmt.Fprintln(os.Stderr, "wrsn-serve:", err)
			os.Exit(1)
		}
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	s := serve.New(cfg)
	go func() {
		for s.Addr() == "" {
			time.Sleep(time.Millisecond)
			if ctx.Err() != nil {
				return
			}
		}
		if len(cfg.Shards) > 0 {
			log.Printf("wrsn-serve: routing on %s across %d shards", s.Addr(), len(cfg.Shards))
		} else {
			log.Printf("wrsn-serve: listening on %s (workers=%d queue=%d)", s.Addr(), *workers, *queue)
		}
	}()
	if err := s.ListenAndServe(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "wrsn-serve:", err)
		os.Exit(1)
	}
	log.Print("wrsn-serve: drained cleanly")
}

// benchReport is the BENCH_serve.json shape.
type benchReport struct {
	Description string           `json:"description"`
	Hardware    map[string]any   `json:"hardware"`
	Config      map[string]any   `json:"config"`
	Sustained   sustainedResults `json:"sustained"`
	Drain       drainResults     `json:"drain"`
	Chaos       *chaosResults    `json:"chaos,omitempty"`
	GeneratedAt string           `json:"generated_at"`
}

type sustainedResults struct {
	Requests       int     `json:"requests"`
	OK             int64   `json:"ok"`
	Rejected       int64   `json:"rejected_429"`
	Errors         int64   `json:"errors"`
	Seconds        float64 `json:"seconds"`
	ReqPerSec      float64 `json:"req_per_s"`
	Availability   float64 `json:"availability"`
	AvailabilityOK bool    `json:"availability_ok"` // availability >= 0.99
	LatencyP50MS   float64 `json:"latency_p50_ms"`
	LatencyP99MS   float64 `json:"latency_p99_ms"`
	LatencyP999MS  float64 `json:"latency_p999_ms"`
	LatencyMaxMS   float64 `json:"latency_max_ms"`
	CacheState     string  `json:"cache"`
}

type drainResults struct {
	InFlightAtDrain int   `json:"in_flight_at_drain"`
	CompletedOK     int64 `json:"completed_ok"`
	DroppedInFlight int64 `json:"dropped_in_flight"`
	NewRefused      bool  `json:"new_requests_refused"`
	CleanShutdown   bool  `json:"clean_shutdown"`
}

// chaosResults records the two chaos-drill phases: deterministic fault
// replay and backend kill/revive.
type chaosResults struct {
	Seed            int64             `json:"seed"`
	ReplayIdentical bool              `json:"replay_identical"`
	EventsDigest    string            `json:"events_digest"`
	Events          int               `json:"events"`
	Faults          map[string]int64  `json:"faults"`
	Retries         int64             `json:"retries"`
	Failovers       int64             `json:"failovers"`
	DegradedLocal   int64             `json:"degraded_local"`
	Hedges          int64             `json:"hedges"`
	BreakerOpens    int64             `json:"breaker_opens"`
	KillRevive      killReviveResults `json:"kill_revive"`
}

type killReviveResults struct {
	Requests        int     `json:"requests"`
	OK              int64   `json:"ok"`
	DroppedInFlight int64   `json:"dropped_in_flight"`
	Availability    float64 `json:"availability"`
	AvailabilityOK  bool    `json:"availability_ok"`
	DegradedLocal   int64   `json:"degraded_local"`
	Retries         int64   `json:"retries"`
	Failovers       int64   `json:"failovers"`
	BreakerOpens    int64   `json:"breaker_opens"`
	ByteIdentical   bool    `json:"schedules_byte_identical"`
}

// runLoadgen starts an in-process server (router when cfg.Shards is
// set), measures sustained /v1/plan throughput with a latency
// histogram, then repeats the acceptance drill: trigger a drain with
// requests in flight and verify every one of them completes. With
// chaosOn it appends the chaos drill.
func runLoadgen(cfg serve.Config, n, k, reqs, concurrency, variants int, out string, chaosOn bool, chaosSeed int64) error {
	if variants < 1 {
		variants = 1
	}
	cfg.Addr = "127.0.0.1:0"
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := serve.New(cfg)
	defer s.Close()
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.ListenAndServe(ctx) }()
	for s.Addr() == "" {
		time.Sleep(time.Millisecond)
	}
	url := "http://" + s.Addr() + "/v1/plan"

	bodies := make([][]byte, variants)
	for i := range bodies {
		b, err := json.Marshal(workload.RequestSet(n, k, int64(i+1), 100))
		if err != nil {
			return err
		}
		bodies[i] = b
	}

	// Phase 1: sustained closed-loop load from `concurrency` clients,
	// each request timed into an HDR-style histogram.
	var ok, rejected, errs atomic.Int64
	var next atomic.Int64
	hist := &resilience.Histogram{}
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < concurrency; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= reqs {
					return
				}
				t0 := time.Now()
				code, err := post(url, bodies[i%len(bodies)])
				hist.Observe(time.Since(t0))
				switch {
				case err != nil:
					errs.Add(1)
				case code == http.StatusOK:
					ok.Add(1)
				case code == http.StatusTooManyRequests:
					rejected.Add(1)
				default:
					errs.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	availability := float64(ok.Load()) / float64(reqs)
	fmt.Printf("sustained: %d requests in %.2fs (%.1f req/s, %d ok, %d rejected, %d errors, p50=%.1fms p99=%.1fms p999=%.1fms)\n",
		reqs, elapsed.Seconds(), float64(reqs)/elapsed.Seconds(), ok.Load(), rejected.Load(), errs.Load(),
		hist.Quantile(0.50).Seconds()*1e3, hist.Quantile(0.99).Seconds()*1e3, hist.Quantile(0.999).Seconds()*1e3)

	// Phase 2: the graceful-drain drill. Pin `concurrency` slow plans
	// (fresh instances, so each pays a full plan), drain mid-flight, and
	// require every admitted request to come back 200.
	inFlight := concurrency
	var drainOK, dropped atomic.Int64
	var dwg sync.WaitGroup
	for c := 0; c < inFlight; c++ {
		body, err := json.Marshal(workload.RequestSet(4*n, k, int64(1000+c), 100))
		if err != nil {
			return err
		}
		dwg.Add(1)
		go func(b []byte) {
			defer dwg.Done()
			code, err := post(url, b)
			if err == nil && code == http.StatusOK {
				drainOK.Add(1)
			} else {
				dropped.Add(1)
			}
		}(body)
	}
	// Give the requests time to be admitted, then drain.
	time.Sleep(100 * time.Millisecond)
	cancel()
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}
	newRefused := false
	if code, err := post(url, bodies[0]); err != nil || code == http.StatusServiceUnavailable {
		newRefused = true
	}
	dwg.Wait()
	shutdownErr := <-serveDone
	fmt.Printf("drain: %d in flight at SIGTERM, %d completed, %d dropped, clean shutdown: %v\n",
		inFlight, drainOK.Load(), dropped.Load(), shutdownErr == nil)

	var chaosRep *chaosResults
	if chaosOn {
		var err error
		if chaosRep, err = runChaosDrill(chaosSeed, k); err != nil {
			return err
		}
	}

	rep := benchReport{
		Description: fmt.Sprintf("wrsn-serve self-benchmark (wrsn-serve -loadgen -n %d -k %d -requests %d -concurrency %d -variants %d)",
			n, k, reqs, concurrency, variants),
		Hardware: map[string]any{
			"cpu":        cpuModel(),
			"cores":      runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"go":         runtime.Version() + " " + runtime.GOOS + "/" + runtime.GOARCH,
		},
		Config: map[string]any{
			"workers": cfg.Workers, "queue_depth": cfg.QueueDepth,
			"cache_capacity": cfg.CacheCapacity, "instance_n": n, "instance_k": k,
			"shards": len(cfg.Shards),
		},
		Sustained: sustainedResults{
			Requests:       reqs,
			OK:             ok.Load(),
			Rejected:       rejected.Load(),
			Errors:         errs.Load(),
			Seconds:        elapsed.Seconds(),
			ReqPerSec:      float64(reqs) / elapsed.Seconds(),
			Availability:   availability,
			AvailabilityOK: availability >= 0.99,
			LatencyP50MS:   hist.Quantile(0.50).Seconds() * 1e3,
			LatencyP99MS:   hist.Quantile(0.99).Seconds() * 1e3,
			LatencyP999MS:  hist.Quantile(0.999).Seconds() * 1e3,
			LatencyMaxMS:   hist.Max().Seconds() * 1e3,
			CacheState:     fmt.Sprintf("%d variants over a shared plan cache", variants),
		},
		Drain: drainResults{
			InFlightAtDrain: inFlight,
			CompletedOK:     drainOK.Load(),
			DroppedInFlight: dropped.Load(),
			NewRefused:      newRefused,
			CleanShutdown:   shutdownErr == nil,
		},
		Chaos:       chaosRep,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	if dropped.Load() > 0 || shutdownErr != nil {
		return fmt.Errorf("drain dropped %d in-flight requests (shutdown err: %v)", dropped.Load(), shutdownErr)
	}
	if errs.Load() > 0 {
		return fmt.Errorf("sustained phase had %d transport/server errors", errs.Load())
	}
	return nil
}

// chaosTopo is one two-backend router topology for the chaos drill.
type chaosTopo struct {
	backends []*serve.Server
	cancels  []context.CancelFunc
	dones    []chan error
	router   *serve.Server
	tripper  *resilience.ChaosTripper
	rCancel  context.CancelFunc
	rDone    chan error
}

func startInProc(cfg serve.Config) (*serve.Server, context.CancelFunc, chan error) {
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := serve.New(cfg)
	done := make(chan error, 1)
	go func() { done <- s.ListenAndServe(ctx) }()
	for s.Addr() == "" {
		time.Sleep(time.Millisecond)
	}
	return s, cancel, done
}

// startChaosTopo brings up two backends and a chaos-wrapped router over
// them, waiting until the router's health loop sees both.
func startChaosTopo(seed int64, routerCfg serve.Config) (*chaosTopo, error) {
	topo := &chaosTopo{}
	for i := 0; i < 2; i++ {
		b, cancel, done := startInProc(serve.Config{})
		topo.backends = append(topo.backends, b)
		topo.cancels = append(topo.cancels, cancel)
		topo.dones = append(topo.dones, done)
	}
	topo.tripper = resilience.NewChaosTripper(nil, resilience.ChaosPlan{
		Seed:        seed,
		LatencyRate: 0.15,
		LatencyBase: 2 * time.Millisecond,
		ResetRate:   0.12,
		Err5xxRate:  0.12,
	})
	routerCfg.Shards = []string{topo.backends[0].Addr(), topo.backends[1].Addr()}
	routerCfg.Transport = topo.tripper
	routerCfg.HealthInterval = 50 * time.Millisecond
	topo.router, topo.rCancel, topo.rDone = startInProc(routerCfg)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if st, _ := topo.router.RouterStats(); st.HealthyBackends == 2 {
			return topo, nil
		}
		if time.Now().After(deadline) {
			topo.stop()
			return nil, fmt.Errorf("chaos drill: router never saw both backends healthy")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (t *chaosTopo) stop() {
	t.rCancel()
	<-t.rDone
	t.router.Close()
	for i, cancel := range t.cancels {
		cancel()
		<-t.dones[i]
	}
}

// chaosReplayRun drives one deterministic replay pass: sequential
// requests over fresh instances, breakers effectively disabled (huge
// threshold) and hedging off, so the only stochastic inputs are the
// hash-keyed chaos draws. Returns the canonical event digest and the
// router counters.
func chaosReplayRun(seed int64, k, reqs int) (digest string, events int, faults map[string]int64, stats serve.RouterStats, err error) {
	topo, err := startChaosTopo(seed, serve.Config{
		BreakerThreshold: 1 << 20, // never trip: open/half-open timing is wall clock, not seed-keyed
		BreakerCooldown:  time.Hour,
	})
	if err != nil {
		return "", 0, nil, serve.RouterStats{}, err
	}
	defer topo.stop()
	url := "http://" + topo.router.Addr() + "/v1/plan"
	for i := 0; i < reqs; i++ {
		body, err := json.Marshal(workload.RequestSet(60, k, int64(i+1), 100))
		if err != nil {
			return "", 0, nil, serve.RouterStats{}, err
		}
		code, err := post(url, body)
		if err != nil || code != http.StatusOK {
			return "", 0, nil, serve.RouterStats{}, fmt.Errorf("chaos replay request %d: code=%d err=%v", i, code, err)
		}
	}
	// Digest the injected-fault sequence in its canonical order. Hosts
	// are excluded: backend ports are ephemeral, while (key, attempt,
	// kind) is the seed-determined part of the sequence.
	evs := topo.tripper.Events()
	h := sha256.New()
	for _, e := range evs {
		fmt.Fprintf(h, "%016x|%d|%s\n", e.Key, e.Attempt, e.Kind)
	}
	st, _ := topo.router.RouterStats()
	return hex.EncodeToString(h.Sum(nil)), len(evs), topo.tripper.Counts(), st, nil
}

// runChaosDrill is the -chaos acceptance drill. Phase A proves replay
// determinism: two fresh topologies with the same seed must inject the
// identical fault sequence and drive identical retry/breaker/hedge
// counters. Phase B hard-kills one of two backends mid-run (transport
// blackhole + listener teardown), revives it, and requires availability
// >= 99% with every schedule byte-identical to single-process planning.
func runChaosDrill(seed int64, k int) (*chaosResults, error) {
	const replayReqs = 48
	fmt.Printf("chaos: replay phase (seed %d, %d sequential requests, twice)\n", seed, replayReqs)
	d1, n1, f1, s1, err := chaosReplayRun(seed, k, replayReqs)
	if err != nil {
		return nil, err
	}
	d2, n2, f2, s2, err := chaosReplayRun(seed, k, replayReqs)
	if err != nil {
		return nil, err
	}
	identical := d1 == d2 && n1 == n2 &&
		s1.Retries == s2.Retries && s1.Failovers == s2.Failovers &&
		s1.DegradedLocal == s2.DegradedLocal && s1.Hedges == s2.Hedges &&
		s1.BreakerOpens == s2.BreakerOpens &&
		fmt.Sprint(f1) == fmt.Sprint(f2)
	fmt.Printf("chaos: replay identical=%v (%d events, %d retries, %d failovers, %d degraded)\n",
		identical, n1, s1.Retries, s1.Failovers, s1.DegradedLocal)

	kr, err := chaosKillRevive(seed, k)
	if err != nil {
		return nil, err
	}

	rep := &chaosResults{
		Seed:            seed,
		ReplayIdentical: identical,
		EventsDigest:    d1,
		Events:          n1,
		Faults:          f1,
		Retries:         s1.Retries,
		Failovers:       s1.Failovers,
		DegradedLocal:   s1.DegradedLocal,
		Hedges:          s1.Hedges,
		BreakerOpens:    s1.BreakerOpens,
		KillRevive:      *kr,
	}
	if !identical {
		return rep, fmt.Errorf("chaos replay diverged: run1 %s (%d events), run2 %s (%d events)", d1, n1, d2, n2)
	}
	if !kr.AvailabilityOK || kr.DroppedInFlight > 0 {
		return rep, fmt.Errorf("chaos kill/revive: availability %.4f, %d dropped", kr.Availability, kr.DroppedInFlight)
	}
	if !kr.ByteIdentical {
		return rep, fmt.Errorf("chaos kill/revive: routed schedules diverged from single-process planning")
	}
	return rep, nil
}

// chaosKillRevive runs concurrent clients against the chaos router,
// hard-kills one backend a third of the way through (administrative
// blackhole plus listener teardown — the HTTP analogue of kill -9),
// revives it at two thirds, and scores availability and byte-identity.
func chaosKillRevive(seed int64, k int) (*killReviveResults, error) {
	const (
		reqs        = 120
		concurrency = 6
		nVariants   = 6
		instN       = 60
	)
	topo, err := startChaosTopo(seed, serve.Config{
		BreakerThreshold: 3,
		BreakerCooldown:  300 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	defer topo.stop()
	url := "http://" + topo.router.Addr() + "/v1/plan"

	// Reference bytes: what wrsn-plan -json (single-process serving)
	// writes for each variant.
	bodies := make([][]byte, nVariants)
	want := make([][]byte, nVariants)
	planner, err := serve.DefaultPlanner("", nil)
	if err != nil {
		return nil, err
	}
	for i := 0; i < nVariants; i++ {
		in := workload.RequestSet(instN, k, int64(i+1), 100)
		if bodies[i], err = json.Marshal(in); err != nil {
			return nil, err
		}
		sched, err := planner.Plan(context.Background(), in)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := export.WriteSchedule(&buf, sched); err != nil {
			return nil, err
		}
		want[i] = buf.Bytes()
	}

	victim := topo.backends[0].Addr()
	var done atomic.Int64
	var okCount atomic.Int64
	var mismatches atomic.Int64
	killed := make(chan struct{})
	revived := make(chan error, 1)
	go func() {
		for done.Load() < reqs/3 {
			time.Sleep(2 * time.Millisecond)
		}
		topo.tripper.Blackhole(victim, true)
		topo.cancels[0]()
		<-topo.dones[0]
		close(killed)
		for done.Load() < 2*reqs/3 {
			time.Sleep(2 * time.Millisecond)
		}
		// Revive: rebind the same address, then lift the blackhole.
		b, cancel, bdone := startInProc(serve.Config{Addr: victim})
		topo.backends[0] = b
		topo.cancels[0] = cancel
		topo.dones[0] = bdone
		topo.tripper.Blackhole(victim, false)
		revived <- nil
	}()

	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < concurrency; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{}
			for {
				i := int(next.Add(1)) - 1
				if i >= reqs {
					return
				}
				v := i % nVariants
				resp, err := client.Post(url, "application/json", bytes.NewReader(bodies[v]))
				if err == nil {
					body, rerr := io.ReadAll(resp.Body)
					resp.Body.Close()
					if rerr == nil && resp.StatusCode == http.StatusOK {
						okCount.Add(1)
						if !bytes.Equal(body, want[v]) {
							mismatches.Add(1)
						}
					}
				}
				done.Add(1)
			}
		}()
	}
	wg.Wait()
	<-killed
	if err := <-revived; err != nil {
		return nil, err
	}

	st, _ := topo.router.RouterStats()
	avail := float64(okCount.Load()) / float64(reqs)
	kr := &killReviveResults{
		Requests:        reqs,
		OK:              okCount.Load(),
		DroppedInFlight: int64(reqs) - okCount.Load(),
		Availability:    avail,
		AvailabilityOK:  avail >= 0.99,
		DegradedLocal:   st.DegradedLocal,
		Retries:         st.Retries,
		Failovers:       st.Failovers,
		BreakerOpens:    st.BreakerOpens,
		ByteIdentical:   mismatches.Load() == 0,
	}
	fmt.Printf("chaos: kill/revive availability=%.4f (%d/%d ok, %d degraded-local, %d retries, %d breaker opens, byte-identical=%v)\n",
		avail, kr.OK, reqs, kr.DegradedLocal, kr.Retries, kr.BreakerOpens, kr.ByteIdentical)
	return kr, nil
}

// post issues one JSON POST and returns the status code, draining the
// body so connections are reused.
func post(url string, body []byte) (int, error) {
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}

// cpuModel reads the CPU model name from /proc/cpuinfo, best effort.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return runtime.GOARCH
}
