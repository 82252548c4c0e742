package resilience

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestBackoffDeterministicAndCapped checks the delay schedule: grows
// exponentially, honors the cap, jitters inside [d/2, d), and replays
// identically for equal (seed, key, attempt).
func TestBackoffDeterministicAndCapped(t *testing.T) {
	b := Backoff{Base: 50 * time.Millisecond, Max: 400 * time.Millisecond, Seed: 7}
	for attempt := 0; attempt < 8; attempt++ {
		grown := 50 * time.Millisecond << attempt
		if grown > 400*time.Millisecond {
			grown = 400 * time.Millisecond
		}
		d := b.Delay(0xdead, attempt)
		if d < grown/2 || d >= grown {
			t.Errorf("attempt %d: delay %v outside [%v, %v)", attempt, d, grown/2, grown)
		}
		if d2 := b.Delay(0xdead, attempt); d2 != d {
			t.Errorf("attempt %d: non-deterministic delay %v vs %v", attempt, d, d2)
		}
	}
	if b.Delay(1, 2) == b.Delay(2, 2) {
		t.Error("distinct keys produced equal jitter (suspicious)")
	}
	if (Backoff{}).Delay(1, 0) <= 0 {
		t.Error("zero-value Backoff returned a non-positive delay")
	}
}

// TestSingleflightCollapses runs many concurrent Do calls on one key and
// checks fn executed once with everyone sharing the result, while a
// distinct key proceeds independently.
func TestSingleflightCollapses(t *testing.T) {
	var g Group[string, int]
	var calls atomic.Int32
	gate := make(chan struct{})

	const dup = 16
	var wg sync.WaitGroup
	results := make([]int, dup)
	shareds := make([]bool, dup)
	for i := 0; i < dup; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err, shared := g.Do("hot", func() (int, error) {
				calls.Add(1)
				<-gate
				return 42, nil
			})
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			results[i], shareds[i] = v, shared
		}(i)
	}
	// Let the herd pile up behind the leader, then release it.
	for calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	close(gate)
	wg.Wait()

	if calls.Load() != 1 {
		t.Fatalf("fn ran %d times, want 1", calls.Load())
	}
	sharedCount := 0
	for i := range results {
		if results[i] != 42 {
			t.Fatalf("caller %d got %d, want 42", i, results[i])
		}
		if shareds[i] {
			sharedCount++
		}
	}
	if sharedCount == 0 {
		t.Fatal("no caller observed shared=true despite duplicates")
	}

	// After the flight lands the key is forgotten: Do runs fn again.
	_, _, _ = g.Do("hot", func() (int, error) { calls.Add(1); return 0, nil })
	if calls.Load() != 2 {
		t.Fatalf("second Do did not re-run fn (calls=%d)", calls.Load())
	}

	// Errors propagate to every sharer.
	boom := errors.New("boom")
	if _, err, _ := g.Do("err", func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("error not propagated: %v", err)
	}
}

// TestHistogramQuantiles feeds a known distribution and checks the
// quantiles land within the documented ~3% bucket resolution.
func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	if h.Quantile(0.99) != 0 || h.Max() != 0 {
		t.Fatal("empty histogram must read 0")
	}
	// 1..1000 ms, uniform.
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 1000 {
		t.Fatalf("Count = %d", h.Count())
	}
	checks := []struct {
		q    float64
		want time.Duration
	}{
		{0.50, 500 * time.Millisecond},
		{0.99, 990 * time.Millisecond},
		{0.999, 999 * time.Millisecond},
	}
	for _, c := range checks {
		got := h.Quantile(c.q)
		lo := time.Duration(float64(c.want) * 0.95)
		hi := time.Duration(float64(c.want) * 1.05)
		if got < lo || got > hi {
			t.Errorf("Quantile(%g) = %v, want within 5%% of %v", c.q, got, c.want)
		}
	}
	if h.Max() != 1000*time.Millisecond {
		t.Errorf("Max = %v, want 1s", h.Max())
	}
	if h.Quantile(1) != h.Max() {
		t.Errorf("Quantile(1) = %v, want Max %v", h.Quantile(1), h.Max())
	}
}

// TestHistogramBucketRoundTrip checks index/value inversion across the
// whole range: the representative value must re-index to its own bucket.
func TestHistogramBucketRoundTrip(t *testing.T) {
	for _, v := range []uint64{0, 1, 63, 64, 65, 127, 128, 1000, 1 << 20, 1<<40 + 12345} {
		idx := bucketIndex(v)
		rep := bucketValue(idx)
		if back := bucketIndex(rep); back != idx {
			t.Errorf("v=%d: idx=%d rep=%d re-idx=%d", v, idx, rep, back)
		}
	}
	// Monotone non-decreasing index.
	prev := -1
	for v := uint64(0); v < 100000; v += 37 {
		idx := bucketIndex(v)
		if idx < prev {
			t.Fatalf("bucketIndex not monotone at %d", v)
		}
		prev = idx
	}
}

// TestHistogramConcurrentObserve exercises the lock-free path under
// -race.
func TestHistogramConcurrentObserve(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(time.Duration(g*1000+i) * time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("Count = %d, want 8000", h.Count())
	}
}
