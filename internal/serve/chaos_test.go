package serve

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
)

// errChaosReset is the transport error returned for an injected
// connection reset; test with errors.Is.
var errChaosReset = errors.New("chaos injected connection reset")

// errChaosBlackhole is the transport error returned for a request to an
// administratively blackholed backend; test with errors.Is.
var errChaosBlackhole = errors.New("chaos blackholed backend")

// Draw kinds of the chaos tripper: next to resilience's backoff kind
// (0x7265730000000001) and far from the fault injector's own kinds
// (small integers), so a seed shared with either never correlates draws.
const (
	kindChaosLatency uint64 = 0x7265730000000002 + iota
	kindChaosLatencyAmount
	kindChaosReset
	kindChaos5xx
)

// chaosPlan configures a chaosTripper. The zero value injects nothing.
// All rates are probabilities in [0, 1], drawn per attempt.
type chaosPlan struct {
	// Seed drives every draw; same plan + same request sequence =
	// identical injected faults.
	Seed int64
	// LatencyRate is the probability an attempt is delayed by
	// LatencyBase * (1 + Exp(1)) before proceeding.
	LatencyRate float64
	// LatencyBase is the injected delay scale; 0 means 20 ms.
	LatencyBase time.Duration
	// ResetRate is the probability an attempt fails with
	// errChaosReset, modeling a connection reset mid-flight.
	ResetRate float64
	// Err5xxRate is the probability an attempt is answered by a
	// synthetic 503 burst without reaching the backend.
	Err5xxRate float64
}

// chaosEvent is one injected fault, identified by the deterministic
// coordinates of its draw, not by when it happened — so sorting events
// canonically yields an identical sequence across replays regardless of
// goroutine interleaving.
type chaosEvent struct {
	// Key identifies the logical request (see chaosKey).
	Key uint64
	// Attempt is the per-key attempt ordinal (0-based).
	Attempt int
	// Host is the backend the attempt addressed.
	Host string
	// Kind is "latency", "reset", "503" or "blackhole".
	Kind string
}

// chaosTripper is an http.RoundTripper that injects faults in front of a
// real transport: added latency, connection resets, 5xx bursts, and
// administratively blackholed backends. It is the internal/fault
// philosophy lifted to the network layer: every probabilistic decision is
// fault.U01(seed, kind, requestKey, attempt), so a run at a fixed seed
// injects the identical fault set on every run over the same request
// sequence. Tests install it as Config.Transport.
//
// Blackholing is not probabilistic: Blackhole(host, true) makes every
// attempt to host stall briefly (modeling dropped packets bounded by the
// caller's patience) and fail with errChaosBlackhole, until revived.
type chaosTripper struct {
	next http.RoundTripper
	plan chaosPlan

	mu         sync.Mutex
	attempts   map[uint64]int
	events     []chaosEvent
	counts     map[string]int64
	blackholed map[string]bool
}

// newChaosTripper wraps next (nil means http.DefaultTransport) with the
// plan's fault injection.
func newChaosTripper(next http.RoundTripper, plan chaosPlan) *chaosTripper {
	if next == nil {
		next = http.DefaultTransport
	}
	if plan.LatencyBase <= 0 {
		plan.LatencyBase = 20 * time.Millisecond
	}
	return &chaosTripper{
		next:       next,
		plan:       plan,
		attempts:   make(map[uint64]int),
		counts:     make(map[string]int64),
		blackholed: make(map[string]bool),
	}
}

// Blackhole sets or clears the blackhole on a backend host (the
// host:port of the request URL).
func (t *chaosTripper) Blackhole(host string, on bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.blackholed[host] = on
}

// RoundTrip implements http.RoundTripper.
func (t *chaosTripper) RoundTrip(r *http.Request) (*http.Response, error) {
	key, err := chaosKey(r)
	if err != nil {
		return nil, err
	}
	host := r.URL.Host

	t.mu.Lock()
	attempt := t.attempts[key]
	t.attempts[key]++
	holed := t.blackholed[host]
	t.mu.Unlock()

	if holed {
		t.record(chaosEvent{Key: key, Attempt: attempt, Host: host, Kind: "blackhole"})
		select {
		case <-time.After(t.plan.LatencyBase):
		case <-r.Context().Done():
			return nil, r.Context().Err()
		}
		return nil, fmt.Errorf("%w: %s", errChaosBlackhole, host)
	}
	a, b := key, uint64(int64(attempt))
	if fault.U01(t.plan.Seed, kindChaosLatency, a, b, 0) < t.plan.LatencyRate {
		t.record(chaosEvent{Key: key, Attempt: attempt, Host: host, Kind: "latency"})
		d := time.Duration(float64(t.plan.LatencyBase) *
			(1 + fault.Excess(fault.U01(t.plan.Seed, kindChaosLatencyAmount, a, b, 0))))
		select {
		case <-time.After(d):
		case <-r.Context().Done():
			return nil, r.Context().Err()
		}
	}
	if fault.U01(t.plan.Seed, kindChaosReset, a, b, 0) < t.plan.ResetRate {
		t.record(chaosEvent{Key: key, Attempt: attempt, Host: host, Kind: "reset"})
		return nil, fmt.Errorf("%w: %s attempt %d", errChaosReset, host, attempt)
	}
	if fault.U01(t.plan.Seed, kindChaos5xx, a, b, 0) < t.plan.Err5xxRate {
		t.record(chaosEvent{Key: key, Attempt: attempt, Host: host, Kind: "503"})
		return &http.Response{
			Status:     "503 Service Unavailable",
			StatusCode: http.StatusServiceUnavailable,
			Proto:      "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Header:  http.Header{"Content-Type": []string{"text/plain; charset=utf-8"}},
			Body:    io.NopCloser(strings.NewReader("chaos injected 503\n")),
			Request: r,
		}, nil
	}
	return t.next.RoundTrip(r)
}

// record appends an event and bumps its kind counter.
func (t *chaosTripper) record(e chaosEvent) {
	t.mu.Lock()
	t.events = append(t.events, e)
	t.counts[e.Kind]++
	t.mu.Unlock()
}

// Events returns the injected faults sorted canonically by (Key,
// Attempt, Kind): byte-identical across replays of one request sequence
// at one seed, whatever the goroutine interleaving was.
func (t *chaosTripper) Events() []chaosEvent {
	t.mu.Lock()
	out := append([]chaosEvent(nil), t.events...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key != out[j].Key {
			return out[i].Key < out[j].Key
		}
		if out[i].Attempt != out[j].Attempt {
			return out[i].Attempt < out[j].Attempt
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// Counts returns the injected-fault totals by kind.
func (t *chaosTripper) Counts() map[string]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]int64, len(t.counts))
	for k, v := range t.counts {
		out[k] = v
	}
	return out
}

// chaosKey identifies the logical request: an FNV-1a hash of its method,
// path, query and body, the body read through GetBody. Every attempt of
// one request hashes alike on any backend, since the host stays out, so
// the keys do not depend on which ports the backends drew.
func chaosKey(r *http.Request) (uint64, error) {
	f := fnv.New64a()
	for _, s := range []string{r.Method, r.URL.Path, r.URL.RawQuery} {
		io.WriteString(f, s)
		f.Write([]byte{0})
	}
	if r.GetBody != nil {
		body, err := r.GetBody()
		if err != nil {
			return 0, fmt.Errorf("chaos key: %w", err)
		}
		defer body.Close()
		if _, err := io.Copy(f, body); err != nil {
			return 0, fmt.Errorf("chaos key: %w", err)
		}
	}
	return f.Sum64(), nil
}

// TestChaosTripperDeterminism replays one request sequence through two
// trippers at the same seed and requires identical event sequences and
// counters; a different seed must diverge.
func TestChaosTripperDeterminism(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	defer backend.Close()

	run := func(seed int64) ([]chaosEvent, map[string]int64) {
		tr := newChaosTripper(nil, chaosPlan{
			Seed: seed, LatencyRate: 0.3, LatencyBase: time.Microsecond,
			ResetRate: 0.3, Err5xxRate: 0.3,
		})
		client := &http.Client{Transport: tr}
		for i := 0; i < 50; i++ {
			// Two attempts per logical request (one body), mirroring a
			// retry loop.
			for a := 0; a < 2; a++ {
				resp, err := client.Post(backend.URL, "text/plain", strings.NewReader(fmt.Sprintf("request %d", i)))
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}
		return tr.Events(), tr.Counts()
	}

	e1, c1 := run(7)
	e2, c2 := run(7)
	if !reflect.DeepEqual(e1, e2) {
		t.Fatalf("same seed diverged:\n%v\nvs\n%v", e1, e2)
	}
	if !reflect.DeepEqual(c1, c2) {
		t.Fatalf("same-seed counters diverged: %v vs %v", c1, c2)
	}
	if len(e1) == 0 {
		t.Fatal("no faults injected at 0.3 rates over 100 attempts")
	}
	e3, _ := run(8)
	if reflect.DeepEqual(e1, e3) {
		t.Fatal("different seeds produced identical fault sequences")
	}
}

// TestChaosTripperBlackhole checks the administrative blackhole fails
// fast with errChaosBlackhole and clears on revive.
func TestChaosTripperBlackhole(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	defer backend.Close()
	host := backend.Listener.Addr().String()

	tr := newChaosTripper(nil, chaosPlan{Seed: 1, LatencyBase: time.Microsecond})
	client := &http.Client{Transport: tr}

	tr.Blackhole(host, true)
	_, err := client.Get(backend.URL)
	if !errors.Is(err, errChaosBlackhole) {
		t.Fatalf("blackholed request: err = %v, want errChaosBlackhole", err)
	}
	tr.Blackhole(host, false)
	resp, err := client.Get(backend.URL)
	if err != nil {
		t.Fatalf("revived request failed: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("revived status = %d", resp.StatusCode)
	}
	if n := tr.Counts()["blackhole"]; n != 1 {
		t.Fatalf("blackhole count = %d, want 1", n)
	}
}
