// Package plancache memoizes the planning service's answers by problem
// instance, so a repeated plan request — the common case in the traffic
// of cmd/wrsn-serve's /v1/plan — skips the plan and its encoding. The
// batch tools and /v1/simulate keep no cache: the evaluation replans
// every round from fresh residual energies and almost never plans one
// request set twice.
//
// A Cache maps an instance key to one value: the /v1/plan response bytes
// of the plan and the planner name they were answered under. The key is
// the first 16 bytes of the SHA-256 of a canonical binary encoding of
// everything the planners read: the planner's canonical registry name
// (see Identity — internal/registry panics at init when two planners
// register one name or an alias shadows one, so keys can never alias
// across algorithms), the seed of a seeded planner (BiLevel; the others
// read no option, so theirs encodes as zero), the depot, gamma, the
// travel speed, K and every request's position, duration and lifetime,
// in request order. Any single difference that can change the plan — one
// coordinate nudged, a different gamma, one more charger, another
// BiLevel seed — therefore changes the key (see FuzzPlanCacheKey), and
// SHA-256 makes a crafted instance that shares another's key infeasible.
//
// The stored bytes are handed to every caller as they are, shared and
// read-only, so a hit copies nothing. Eviction is LRU with a bounded
// entry count.
//
// Besides its key, an entry can be found by the digest of one raw
// request (Index), the body index: a byte-identical repeat of that
// request is answered by Lookup without decoding the body. A digest
// leaves the index with its entry, or when the entry is indexed under
// another digest, so the index never holds more digests than entries.
//
// Cache methods are safe for concurrent use and record cache.hits,
// cache.body_hits, cache.misses, cache.puts and cache.evictions on any
// obs.Tracer carried by the context, alongside the cache's own Stats.
package plancache

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/registry"
)

// DefaultCapacity is the entry bound used when New is given a
// non-positive capacity; the body index holds at most one digest per
// entry. An entry is one response: ~88 KB at paper scale (1200 requests,
// ~430 stops), so a full default cache holds ~6 MB, and ~2.2 MB at
// n=30k, ~140 MB at capacity. A default wrsn-serve that has answered 64
// distinct n=30k plans peaks at 280–295 MB resident, and at ~330 MB
// while it goes on evicting (352–380 and 431 MB when an entry also held
// the schedule). The bound is sized to that worst case.
const DefaultCapacity = 64

// Key identifies a (planner, seed, instance) triple: the first 16 bytes
// of the SHA-256 of the canonical encoding.
type Key [16]byte

// Hash64 folds the key to 64 bits, the shape consistent hashing wants:
// the serve router scores backends with mix(Hash64 ^ backend) so every
// replica of a fleet agrees on which shard owns a given plan request
// without any coordination. Folding by XOR of the two halves keeps all
// 128 input bits influential.
func (k Key) Hash64() uint64 {
	return binary.LittleEndian.Uint64(k[:8]) ^ binary.LittleEndian.Uint64(k[8:])
}

// Digest identifies a raw request in the body index. The planning
// service takes it as the SHA-256 of everything a /v1/plan response
// depends on besides the server's own state: the ?planner= value and the
// body bytes.
type Digest [sha256.Size]byte

// Optioned is the optional interface a core.Planner implements to expose
// the core.Options shaping its plans: the seeded planners (registry's
// Seeded flag) implement it, and a planner that reads no option does not.
// Identity consults it so two planners that share a Name but plan under
// different seeds (two BiLevels) never alias to one cache entry, while an
// unseeded planner keys every seed it is handed to one entry.
type Optioned interface {
	// PlanOptions returns the options the planner plans under.
	PlanOptions() core.Options
}

// Identity resolves the pair a cache keys p under: the planner's
// canonical registry name — Lookup collapses aliases, case variants and
// wrappers that preserve Name to one spelling — and its options when it
// exposes them via Optioned (nil otherwise, which keys like the zero
// options). Keys derived this way can never alias across algorithms: the
// registry panics at init when two planners register one canonical name
// or an alias shadows an existing name.
func Identity(p core.Planner) (name string, opts *core.Options) {
	name = p.Name()
	if e, ok := registry.Lookup(name); ok {
		name = e.Name
	}
	if o, ok := p.(Optioned); ok {
		v := o.PlanOptions()
		opts = &v
	}
	return name, opts
}

// keyChunk is the size of the buffer KeyOf encodes into and hashes from:
// large enough that SHA-256 sees long writes, small enough to stay in
// cache and cost one small allocation at any instance size.
const keyChunk = 8 << 10

// KeyOf hashes everything the named planner reads from the options and
// the instance. Instances that differ in any field (a coordinate, a
// duration, gamma, speed, K, the depot, the request count or order)
// produce different keys, as do different seeds; byte-equal inputs
// produce equal keys, and nil options key like the zero options.
func KeyOf(planner string, opts *core.Options, in *core.Instance) Key {
	h := sha256.New()
	buf := make([]byte, 0, keyChunk)
	u := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	f := func(v float64) { u(math.Float64bits(v)) }
	buf = append(buf, planner...)
	buf = append(buf, 0) // terminate the name so "AB"+depot can't alias "A"+...
	var seed int64
	if opts != nil {
		seed = opts.Seed
	}
	u(uint64(seed))
	f(in.Depot.X)
	f(in.Depot.Y)
	f(in.Gamma)
	f(in.Speed)
	u(uint64(in.K))
	u(uint64(len(in.Requests)))
	for _, r := range in.Requests {
		if len(buf)+32 > keyChunk {
			h.Write(buf)
			buf = buf[:0]
		}
		f(r.Pos.X)
		f(r.Pos.Y)
		f(r.Duration)
		f(r.Lifetime)
	}
	h.Write(buf)
	var sum [sha256.Size]byte
	var k Key
	copy(k[:], h.Sum(sum[:0]))
	return k
}

// Stats is a cache snapshot.
type Stats struct {
	// Hits and Misses count lookup outcomes: Get hits and misses, plus
	// the Lookup hits, which BodyHits counts again on their
	// own (a Lookup that misses counts nothing: its caller goes on to
	// look up by key). Puts counts insertions and Evictions the LRU
	// entries displaced by them.
	Hits, BodyHits, Misses, Puts, Evictions int64
	// Size is the current entry count, bounded by Capacity.
	Size, Capacity int
}

// entry is one cached answer: the response bytes and the planner name
// they were answered under.
type entry struct {
	key     Key
	planner string
	// body is shared with every caller it is handed to, so never
	// modified; Put swaps in a new slice.
	body []byte
	// digest is the request digest the body index maps to this entry,
	// when indexed.
	digest  Digest
	indexed bool
}

// Cache is a bounded LRU of /v1/plan answers, each found by its key and
// by at most one request digest. The zero value is not usable; call New.
// All methods are safe for concurrent use and no-ops on a nil receiver,
// so optional caching costs callers a single nil check.
type Cache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // *entry, front = most recently used
	byKey    map[Key]*list.Element
	byDigest map[Digest]*list.Element // the body index

	hits, bodyHits, misses, puts, evictions int64
}

// New returns an empty cache bounded to capacity entries (non-positive
// means DefaultCapacity).
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Cache{
		capacity: capacity,
		ll:       list.New(),
		byKey:    make(map[Key]*list.Element, capacity),
		byDigest: make(map[Digest]*list.Element, capacity),
	}
}

// Get returns the response bytes and planner name cached under key,
// shared and read-only, or ok=false. It records cache.hits or
// cache.misses on any tracer in ctx.
func (c *Cache) Get(ctx context.Context, key Key) (body []byte, planner string, ok bool) {
	if c == nil {
		return nil, "", false
	}
	c.mu.Lock()
	el, ok := c.byKey[key]
	if ok {
		c.ll.MoveToFront(el)
		c.hits++
		e := el.Value.(*entry)
		body, planner = e.body, e.planner
	} else {
		c.misses++
	}
	c.mu.Unlock()
	if ok {
		obs.FromContext(ctx).Add("cache.hits", 1)
	} else {
		obs.FromContext(ctx).Add("cache.misses", 1)
	}
	return body, planner, ok
}

// Put stores body, the response answered under planner, under key,
// evicting the least recently used entry (and its digest) when the cache
// is full. The caller must not modify body afterwards. It records
// cache.puts (and cache.evictions) on any tracer in ctx.
func (c *Cache) Put(ctx context.Context, key Key, planner string, body []byte) {
	if c == nil {
		return
	}
	evicted := false
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		e := el.Value.(*entry)
		e.planner, e.body = planner, body
		c.ll.MoveToFront(el)
	} else {
		c.byKey[key] = c.ll.PushFront(&entry{key: key, planner: planner, body: body})
		if c.ll.Len() > c.capacity {
			last := c.ll.Remove(c.ll.Back()).(*entry)
			delete(c.byKey, last.key)
			if last.indexed {
				delete(c.byDigest, last.digest)
			}
			c.evictions++
			evicted = true
		}
	}
	c.puts++
	c.mu.Unlock()
	tr := obs.FromContext(ctx)
	tr.Add("cache.puts", 1)
	if evicted {
		tr.Add("cache.evictions", 1)
	}
}

// Index maps the request digest d to key's entry, where Lookup finds it.
// The digest replaces the one the entry was indexed under before, and
// leaves any other entry it indexed. Index is a no-op when key has no
// entry (it has been evicted since its Put).
func (c *Cache) Index(d Digest, key Key) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		return
	}
	if prev, ok := c.byDigest[d]; ok {
		prev.Value.(*entry).indexed = false
	}
	e := el.Value.(*entry)
	if e.indexed {
		delete(c.byDigest, e.digest)
	}
	e.digest, e.indexed = d, true
	c.byDigest[d] = el
}

// Lookup returns the response bytes and planner name of the entry the
// request digest d is indexed to, shared and read-only, or ok=false. A
// hit records cache.hits and cache.body_hits on any tracer in ctx; a miss
// records nothing, because the caller goes on to decode the request and
// look it up by key.
func (c *Cache) Lookup(ctx context.Context, d Digest) (body []byte, planner string, ok bool) {
	if c == nil {
		return nil, "", false
	}
	c.mu.Lock()
	el, ok := c.byDigest[d]
	if ok {
		c.ll.MoveToFront(el)
		c.hits++
		c.bodyHits++
		e := el.Value.(*entry)
		body, planner = e.body, e.planner
	}
	c.mu.Unlock()
	if ok {
		tr := obs.FromContext(ctx)
		tr.Add("cache.hits", 1)
		tr.Add("cache.body_hits", 1)
	}
	return body, planner, ok
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits: c.hits, BodyHits: c.bodyHits, Misses: c.misses, Puts: c.puts, Evictions: c.evictions,
		Size: c.ll.Len(), Capacity: c.capacity,
	}
}

// Clone returns a deep copy of the schedule: no slice is shared with the
// original, so either side may mutate freely. Nil slices stay nil and
// empty ones empty. No serving path copies a schedule since the cache
// stores response bytes; Clone stays for e2ebench, whose
// plancache.clone_s layer times it.
func Clone(s *core.Schedule) *core.Schedule {
	if s == nil {
		return nil
	}
	out := &core.Schedule{Longest: s.Longest, WaitTime: s.WaitTime}
	if s.Tours == nil {
		return out
	}
	out.Tours = make([]core.Tour, len(s.Tours))
	for k, t := range s.Tours {
		ct := core.Tour{Delay: t.Delay}
		if t.Stops != nil {
			ct.Stops = make([]core.Stop, len(t.Stops))
			for i, st := range t.Stops {
				st.Covers = slices.Clone(st.Covers)
				ct.Stops[i] = st
			}
		}
		out.Tours[k] = ct
	}
	return out
}
