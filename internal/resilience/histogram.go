package resilience

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram bucket geometry: log-linear ("HDR-style") with subBits bits
// of resolution inside every power-of-two range, recording in
// microseconds. Values below subCount land in exact unit buckets; above,
// bucket width doubles with each octave, bounding relative error by
// 2^-(subBits-1) (~3%) — plenty for p50/p99/p999 while keeping the whole
// histogram a fixed 15 KiB of atomics.
const (
	subBits   = 6
	subCount  = 1 << subBits // 64
	halfCount = subCount / 2 // 32
	// numBuckets covers every uint64 microsecond value: the largest
	// shift is 64-subBits = 58, so indexes stay below 58*32+64.
	numBuckets = 59*halfCount + subCount
)

// Histogram is a fixed-size log-linear latency histogram. The zero value
// is ready to use; Observe is lock-free (two atomic adds plus a max CAS),
// so request paths can record into a shared instance without contention.
// Quantile readers see a live snapshot that is approximately consistent
// under concurrent writes — fine for metrics, which is all it is for.
type Histogram struct {
	counts [numBuckets]atomic.Int64
	count  atomic.Int64
	max    atomic.Int64 // microseconds
}

// bucketIndex maps a microsecond value to its bucket.
func bucketIndex(v uint64) int {
	if v < subCount {
		return int(v)
	}
	shift := bits.Len64(v) - subBits
	idx := shift*halfCount + int(v>>shift)
	if idx >= numBuckets {
		idx = numBuckets - 1
	}
	return idx
}

// bucketValue returns the representative (midpoint) microsecond value of
// a bucket — the inverse of bucketIndex up to bucket width.
func bucketValue(idx int) uint64 {
	if idx < subCount {
		return uint64(idx)
	}
	shift := idx/halfCount - 1
	m := uint64(idx - shift*halfCount)
	return m<<shift + 1<<shift>>1
}

// Observe records one latency.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	us := int64(d / time.Microsecond)
	h.counts[bucketIndex(uint64(us))].Add(1)
	h.count.Add(1)
	for {
		cur := h.max.Load()
		if us <= cur || h.max.CompareAndSwap(cur, us) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Max returns the largest observed latency.
func (h *Histogram) Max() time.Duration {
	return time.Duration(h.max.Load()) * time.Microsecond
}

// Quantile returns the latency at quantile q in [0, 1]: the bucket
// midpoint at the smallest rank covering q of the observations, except
// q = 1 which returns the exact Max. Zero observations return 0.
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q >= 1 {
		return h.Max()
	}
	if q < 0 {
		q = 0
	}
	rank := int64(q*float64(total)) + 1
	if rank > total {
		rank = total
	}
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum >= rank {
			return time.Duration(bucketValue(i)) * time.Microsecond
		}
	}
	return h.Max()
}
