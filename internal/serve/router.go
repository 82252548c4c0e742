package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/plancache"
	"repro/internal/resilience"
)

// errNoBackends reports that no healthy backend with a closed (or
// probing) breaker was available for any attempt; the caller degrades to
// planning locally.
var errNoBackends = errors.New("serve: no eligible backend")

// backend is one shard worker as the router sees it: an address, a
// liveness verdict from the health loop, and a circuit breaker fed by
// request outcomes.
type backend struct {
	url     string // normalized base URL, e.g. "http://127.0.0.1:9001"
	host    string // host:port, the metrics label and X-Plan-Backend value
	score   uint64 // fnv64(host), mixed with plan keys for rendezvous
	healthy atomic.Bool
	breaker *resilience.Breaker
}

// proxyResult is a routed /v1/plan response held for replay to the
// client (and shared across singleflight duplicates).
type proxyResult struct {
	status  int
	header  http.Header
	body    []byte
	backend string // host that answered
}

// router fans /v1/plan requests across shard backends: consistent
// (rendezvous) hashing on the 128-bit plancache key for cache locality,
// a health-check loop, per-backend circuit breakers, retry with
// backed-off deterministic jitter, Retry-After honoring, optional
// hedging, and singleflight collapsing — all in front of a
// degraded-local fallback owned by the handler.
type router struct {
	backends      []*backend
	client        *http.Client // request path; cfg.Transport when set
	healthClient  *http.Client // health loop; always a plain transport
	backoff       resilience.Backoff
	maxAttempts   int
	attemptTO     time.Duration
	retryAfterCap time.Duration
	hedgeQuantile float64
	interval      time.Duration

	hist  *resilience.Histogram // routed-attempt latencies; feeds hedging
	group resilience.Group[plancache.Key, *proxyResult]
	// sleep pauses between retries; injectable so tests can observe the
	// schedule without waiting it out.
	sleep func(ctx context.Context, d time.Duration) error

	retries    atomic.Int64 // attempts beyond the first, per request
	failovers  atomic.Int64 // attempts that switched backends
	hedges     atomic.Int64 // hedged second requests launched
	hedgeWins  atomic.Int64 // hedges whose response was used
	degraded   atomic.Int64 // requests that fell back to local planning
	routedOK   atomic.Int64 // requests answered by a backend
	collapsed  atomic.Int64 // singleflight duplicate deliveries
	hedgeFloor time.Duration

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// hedgeMinSamples is how many routed attempts the latency histogram must
// hold before a p99-derived hedge delay is trusted.
const hedgeMinSamples = 32

// newRouter builds the router for cfg.Shards and starts its health loop.
func newRouter(cfg Config) *router {
	transport := cfg.Transport
	if transport == nil {
		transport = http.DefaultTransport
	}
	r := &router{
		client:        &http.Client{Transport: transport},
		healthClient:  &http.Client{Timeout: cfg.HealthInterval},
		backoff:       cfg.RouterBackoff,
		maxAttempts:   cfg.RouterMaxAttempts,
		attemptTO:     cfg.RouterAttemptTimeout,
		retryAfterCap: cfg.RetryAfterCap,
		hedgeQuantile: cfg.HedgeQuantile,
		interval:      cfg.HealthInterval,
		hist:          &resilience.Histogram{},
		hedgeFloor:    time.Millisecond,
		stop:          make(chan struct{}),
	}
	r.sleep = func(ctx context.Context, d time.Duration) error {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	for _, s := range cfg.Shards {
		u := strings.TrimRight(s, "/")
		if !strings.Contains(u, "://") {
			u = "http://" + u
		}
		h := fnv.New64a()
		io.WriteString(h, u)
		r.backends = append(r.backends, &backend{
			url:     u,
			host:    strings.TrimPrefix(strings.TrimPrefix(u, "http://"), "https://"),
			score:   h.Sum64(),
			breaker: resilience.NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown),
		})
	}
	r.wg.Add(1)
	go r.healthLoop()
	return r
}

// close stops the health loop. Idempotent.
func (r *router) close() {
	r.stopOnce.Do(func() { close(r.stop) })
	r.wg.Wait()
}

// healthLoop probes every backend's /readyz on a fixed cadence, starting
// immediately. It uses a plain transport on purpose: faults injected on
// the request path must not flap health verdicts, and a fault-injecting
// transport's ledger stays exactly the request-path faults.
func (r *router) healthLoop() {
	defer r.wg.Done()
	for {
		for _, b := range r.backends {
			b.healthy.Store(r.probe(b))
		}
		select {
		case <-r.stop:
			return
		case <-time.After(r.interval):
		}
	}
}

// probe reports whether one backend answers /readyz with 200.
func (r *router) probe(b *backend) bool {
	resp, err := r.healthClient.Get(b.url + "/readyz")
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode == http.StatusOK
}

// healthyCount returns how many backends last probed healthy.
func (r *router) healthyCount() int {
	n := 0
	for _, b := range r.backends {
		if b.healthy.Load() {
			n++
		}
	}
	return n
}

// rank orders backends by rendezvous (highest-random-weight) score for
// the key: every router replica agrees on the owner of a key and on the
// failover order behind it, so a fleet shares plan-cache locality
// without coordination.
func (r *router) rank(key plancache.Key) []*backend {
	kh := key.Hash64()
	out := append([]*backend(nil), r.backends...)
	sort.Slice(out, func(i, j int) bool {
		si, sj := fault.Mix64(kh^out[i].score), fault.Mix64(kh^out[j].score)
		if si != sj {
			return si > sj
		}
		return out[i].url < out[j].url // total order even on mix collisions
	})
	return out
}

// pick returns the first eligible backend in prefs starting at offset,
// acquiring its breaker admission. A returned backend MUST receive a
// breaker Report from the caller. nil means nothing is eligible now.
func (r *router) pick(prefs []*backend, offset int) *backend {
	for i := 0; i < len(prefs); i++ {
		b := prefs[(offset+i)%len(prefs)]
		if !b.healthy.Load() {
			continue
		}
		if !b.breaker.Allow() {
			continue
		}
		return b
	}
	return nil
}

// attemptOutcome classifies one proxied attempt.
type attemptOutcome struct {
	res        *proxyResult  // non-nil when the response is final (2xx/4xx)
	retryAfter time.Duration // backend's 429 Retry-After hint, if any
	err        error         // transport or retryable-status failure
	backend    *backend
}

// attempt proxies the plan request once to b. It reports the outcome to
// b's breaker: transport errors and 5xx count against it, 2xx/4xx/429
// count for it (a shedding backend is an alive backend).
func (r *router) attempt(ctx context.Context, b *backend, rawQuery string, body []byte) attemptOutcome {
	actx, cancel := context.WithTimeout(ctx, r.attemptTO)
	defer cancel()
	u := b.url + "/v1/plan"
	if rawQuery != "" {
		u += "?" + rawQuery
	}
	req, err := http.NewRequestWithContext(actx, http.MethodPost, u, bytes.NewReader(body))
	if err != nil {
		return attemptOutcome{err: err, backend: b}
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := r.client.Do(req)
	if err != nil {
		b.breaker.Report(false)
		return attemptOutcome{err: err, backend: b}
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		b.breaker.Report(false)
		return attemptOutcome{err: err, backend: b}
	}
	r.hist.Observe(time.Since(start))
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		b.breaker.Report(true)
		hint := r.retryAfterHint(resp)
		return attemptOutcome{retryAfter: hint, backend: b,
			err: fmt.Errorf("serve: backend %s shedding (429, retry after %v)", b.host, hint)}
	case resp.StatusCode >= 500:
		b.breaker.Report(false)
		return attemptOutcome{err: fmt.Errorf("serve: backend %s answered %d", b.host, resp.StatusCode), backend: b}
	default: // 2xx and non-retryable 4xx are final
		b.breaker.Report(true)
		return attemptOutcome{res: &proxyResult{
			status:  resp.StatusCode,
			header:  resp.Header,
			body:    out,
			backend: b.host,
		}, backend: b}
	}
}

// retryAfterHint parses a 429's Retry-After (delta-seconds form) and
// caps it: the backend's own estimate of when capacity frees replaces
// the router's blind backoff, but a confused backend cannot stall the
// router for minutes.
func (r *router) retryAfterHint(resp *http.Response) time.Duration {
	s := resp.Header.Get("Retry-After")
	if s == "" {
		return 0
	}
	secs, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil || secs < 0 {
		return 0
	}
	d := time.Duration(secs) * time.Second
	if d > r.retryAfterCap {
		d = r.retryAfterCap
	}
	return d
}

// fetch routes one plan request: rendezvous-ranked backends, retry with
// deterministic backoff (or the backend's Retry-After hint), failover
// around open breakers and unhealthy shards, and an optional hedged
// second request on the first attempt once the latency histogram has
// enough samples. It returns errNoBackends (or the last failure) when
// every path is exhausted — the caller's cue to plan locally.
func (r *router) fetch(ctx context.Context, key plancache.Key, rawQuery string, body []byte) (*proxyResult, error) {
	prefs := r.rank(key)
	lastErr := errNoBackends
	var prev *backend
	var hint time.Duration
	for attempt := 0; attempt < r.maxAttempts; attempt++ {
		b := r.pick(prefs, attempt)
		if b == nil {
			break
		}
		if attempt > 0 {
			r.retries.Add(1)
			if b != prev {
				r.failovers.Add(1)
			}
			d := hint
			if d <= 0 {
				d = r.backoff.Delay(key.Hash64(), attempt-1)
			}
			if err := r.sleep(ctx, d); err != nil {
				b.breaker.Report(true) // admission unused; not the backend's fault
				return nil, err
			}
			hint = 0
		}
		var out attemptOutcome
		if attempt == 0 && r.hedgeDelay() > 0 {
			out = r.hedgedAttempt(ctx, prefs, b, rawQuery, body)
		} else {
			out = r.attempt(ctx, b, rawQuery, body)
		}
		prev = out.backend
		if out.res != nil {
			if out.res.status < 500 {
				r.routedOK.Add(1)
				return out.res, nil
			}
		}
		hint = out.retryAfter
		if out.err != nil {
			lastErr = out.err
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	return nil, lastErr
}

// hedgeDelay returns the delay after which a second request is hedged,
// or 0 when hedging is off or the histogram is still too empty to trust.
func (r *router) hedgeDelay() time.Duration {
	if r.hedgeQuantile <= 0 || r.hist.Count() < hedgeMinSamples {
		return 0
	}
	d := r.hist.Quantile(r.hedgeQuantile)
	if d < r.hedgeFloor {
		d = r.hedgeFloor
	}
	return d
}

// hedgedAttempt races the primary attempt against a second one launched
// after the quantile-derived delay on the next-ranked eligible backend.
// The first final response wins; a losing in-flight attempt still
// reports to its breaker from its own goroutine.
func (r *router) hedgedAttempt(ctx context.Context, prefs []*backend, primary *backend, rawQuery string, body []byte) attemptOutcome {
	ch := make(chan attemptOutcome, 2)
	go func() { ch <- r.attempt(ctx, primary, rawQuery, body) }()
	var timer = time.NewTimer(r.hedgeDelay())
	defer timer.Stop()
	hedged := false
	var second *backend
	select {
	case out := <-ch:
		return out
	case <-timer.C:
		// Primary is slow: hedge to the best other eligible backend.
		for i := 1; i < len(prefs) && second == nil; i++ {
			c := prefs[i%len(prefs)]
			if c != primary && c.healthy.Load() && c.breaker.Allow() {
				second = c
			}
		}
		if second == nil {
			return <-ch
		}
		hedged = true
		r.hedges.Add(1)
		go func() { ch <- r.attempt(ctx, second, rawQuery, body) }()
	}
	first := <-ch
	if first.res != nil && first.res.status < 500 {
		if hedged && first.backend == second {
			r.hedgeWins.Add(1)
		}
		return first
	}
	// First arrival failed; the other attempt is still the request's
	// best hope.
	outcome := <-ch
	if outcome.res != nil && outcome.res.status < 500 {
		if outcome.backend == second {
			r.hedgeWins.Add(1)
		}
		return outcome
	}
	if outcome.err == nil {
		return first
	}
	return outcome
}
