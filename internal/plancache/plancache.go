// Package plancache memoizes planner outputs by problem instance, so a
// repeated plan request — the common case in the planning service's
// traffic (cmd/wrsn-serve) — skips the plan. The batch tools keep no
// cache: the evaluation replans every round from fresh residual energies
// and never plans one request set twice.
//
// A Cache maps an instance key to a stored *core.Schedule. The key is the
// first 16 bytes of the SHA-256 of a canonical binary encoding of
// everything the planners read: the planner's canonical registry name
// (see Identity — internal/registry panics at init when two planners
// register one name or an alias shadows one, so keys can never alias
// across algorithms), a canonical encoding of the plan-shaping
// core.Options fields (see KeyOf), the depot, gamma, the travel speed, K
// and every request's position, duration and lifetime, in request order.
// Any single difference that can change the plan — one coordinate
// nudged, a different gamma, one more charger, a different MISOrder —
// therefore changes the key (see FuzzPlanCacheKey), and SHA-256 makes a
// crafted instance that shares another's key infeasible.
//
// Schedules cross the cache boundary by deep copy in both directions:
// callers may freely mutate what Get returns (the simulator's executor
// does), and a schedule mutated after Put does not corrupt the cached
// value. Eviction is LRU with a bounded entry count.
//
// For the planning service an entry also keeps the schedule's response
// bytes once the service has encoded them (Remember), and the cache keeps
// a body index: the digest of a raw request, mapped to its entry's key
// and planner name. A byte-identical repeat of a request is answered from
// the index (Lookup) without decoding the body.
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
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/registry"
)

// DefaultCapacity is the entry bound used when New is given a
// non-positive capacity; the body index holds at most as many digests.
// At paper scale (1200 requests, ~430 stops) an entry holds a ~30 KB
// schedule and, once /v1/plan has answered it, ~88 KB of response bytes,
// so a full default cache holds ~8 MB. At n=30k an entry is ~0.75 MB
// plus 2.2 MB, ~190 MB at capacity: a default wrsn-serve that has
// answered 64 distinct n=30k plans peaks at ~0.39 GB resident, and at
// ~0.45 GB while it goes on evicting. The bound is sized to that worst
// case, which is where 256 schedules without response bytes put it;
// 256 entries with them took the same server to ~1.5 GB.
const DefaultCapacity = 64

// Key identifies a (planner, options, instance) triple: the first 16
// bytes of the SHA-256 of the canonical encoding.
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
// the core.Options shaping its plans. Identity consults it so two
// planners that share a Name but differ in plan-changing options (e.g.
// two ApproPlanners with different MISOrders) never alias to one cache
// entry.
type Optioned interface {
	// PlanOptions returns the options the planner plans under.
	PlanOptions() core.Options
}

// Identity resolves the pair a cache keys p under: the planner's
// canonical registry name — Lookup collapses aliases, case variants and
// wrappers that preserve Name to one spelling — and its plan-shaping
// options when it exposes them via Optioned (nil otherwise, the zero
// options). Keys derived this way can never alias across algorithms:
// the registry panics at init when two planners register one canonical
// name or an alias shadows an existing name.
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

// canonOptions maps opts to the canonical representative of its
// plan-equivalence class: two option values that provably produce the
// same schedule encode identically, and any field that can change the
// plan survives. nil means the zero (paper-default) options.
//
//   - MISOrder zero means graph.MISMaxDegree (Appro's documented default).
//   - Seed only matters under the seeded order graph.MISRandom; it is
//     zeroed under the deterministic ones.
func canonOptions(opts *core.Options) core.Options {
	var o core.Options
	if opts != nil {
		o = *opts
	}
	if o.MISOrder == 0 {
		o.MISOrder = graph.MISMaxDegree
	}
	if o.MISOrder != graph.MISRandom {
		o.Seed = 0
	}
	return o
}

// keyChunk is the size of the buffer KeyOf encodes into and hashes from:
// large enough that SHA-256 sees long writes, small enough to stay in
// cache and cost one small allocation at any instance size.
const keyChunk = 8 << 10

// KeyOf hashes everything the named planner reads from the options and
// the instance. Instances that differ in any field (a coordinate, a
// duration, gamma, speed, K, the depot, the request count or order)
// produce different keys, as do options that differ in any plan-changing
// field; byte-equal inputs — and options inside the same plan-equivalence
// class, see canonOptions — produce equal keys.
func KeyOf(planner string, opts *core.Options, in *core.Instance) Key {
	h := sha256.New()
	buf := make([]byte, 0, keyChunk)
	u := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	f := func(v float64) { u(math.Float64bits(v)) }
	buf = append(buf, planner...)
	buf = append(buf, 0) // terminate the name so "AB"+depot can't alias "A"+...
	o := canonOptions(opts)
	u(uint64(o.MISOrder))
	u(uint64(o.Seed))
	if o.NoSortByFinishTime {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
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

type entry struct {
	key   Key
	sched *core.Schedule
	// body is the schedule's response bytes once Remember has stored
	// them; nil until then. Shared with every caller it is handed to, so
	// never modified.
	body []byte
}

// indexed is a body-index record: the entry and the planner name that
// answered a request digest.
type indexed struct {
	digest  Digest
	key     Key
	planner string
}

// Cache is a bounded LRU of planned schedules with a body index in front
// of it. The zero value is not usable; call New. All methods are safe for
// concurrent use and no-ops on a nil receiver, so optional caching costs
// callers a single nil check.
type Cache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	byKey    map[Key]*list.Element
	index    *list.List // the body index: *indexed, at most capacity, front = most recently used
	byDigest map[Digest]*list.Element

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
		index:    list.New(),
		byDigest: make(map[Digest]*list.Element, capacity),
	}
}

// Get returns a deep copy of the schedule cached under key, or
// (nil, false). It records cache.hits or cache.misses on any tracer in
// ctx.
func (c *Cache) Get(ctx context.Context, key Key) (*core.Schedule, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	el, ok := c.byKey[key]
	if !ok {
		c.misses++
		c.mu.Unlock()
		obs.FromContext(ctx).Add("cache.misses", 1)
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.hits++
	s := el.Value.(*entry).sched
	c.mu.Unlock()
	obs.FromContext(ctx).Add("cache.hits", 1)
	// A cached schedule is never modified (Put swaps in a new one), so
	// the copy needs no lock.
	return Clone(s), true
}

// Put stores a deep copy of the schedule under key, evicting the least
// recently used entry when the cache is full. It records cache.puts (and
// cache.evictions) on any tracer in ctx.
func (c *Cache) Put(ctx context.Context, key Key, s *core.Schedule) {
	if c == nil || s == nil {
		return
	}
	cp := Clone(s)
	evicted := false
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		e := el.Value.(*entry)
		e.sched, e.body = cp, nil
		c.ll.MoveToFront(el)
	} else {
		c.byKey[key] = c.ll.PushFront(&entry{key: key, sched: cp})
		if c.ll.Len() > c.capacity {
			last := c.ll.Back()
			c.ll.Remove(last)
			delete(c.byKey, last.Value.(*entry).key)
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

// Remember stores body, the encoding of the schedule cached under key, on
// key's entry, and indexes the request digest d to key and planner (the
// name the response carries), where Lookup finds both. The caller must not modify body afterwards. The index
// keeps the capacity most recently used digests. Remember is a no-op
// when key's entry has been evicted since its Put.
func (c *Cache) Remember(d Digest, key Key, planner string, body []byte) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		return
	}
	el.Value.(*entry).body = body
	if iel, ok := c.byDigest[d]; ok {
		rec := iel.Value.(*indexed)
		rec.key, rec.planner = key, planner
		c.index.MoveToFront(iel)
		return
	}
	c.byDigest[d] = c.index.PushFront(&indexed{digest: d, key: key, planner: planner})
	if c.index.Len() > c.capacity {
		last := c.index.Back()
		c.index.Remove(last)
		delete(c.byDigest, last.Value.(*indexed).digest)
	}
}

// Lookup returns the response bytes and planner name Remember stored for
// the request digest d, shared and read-only, or ok=false when d is not
// indexed or its entry has since been evicted or replaced. A hit records
// cache.hits and cache.body_hits on any tracer in ctx; a miss records
// nothing, because the caller goes on to decode the request and look it
// up by key.
func (c *Cache) Lookup(ctx context.Context, d Digest) (body []byte, planner string, ok bool) {
	if c == nil {
		return nil, "", false
	}
	c.mu.Lock()
	iel, ok := c.byDigest[d]
	if !ok {
		c.mu.Unlock()
		return nil, "", false
	}
	rec := iel.Value.(*indexed)
	el, ok := c.byKey[rec.key]
	if !ok || el.Value.(*entry).body == nil {
		c.index.Remove(iel)
		delete(c.byDigest, d)
		c.mu.Unlock()
		return nil, "", false
	}
	c.index.MoveToFront(iel)
	c.ll.MoveToFront(el)
	c.hits++
	c.bodyHits++
	body, planner = el.Value.(*entry).body, rec.planner
	c.mu.Unlock()
	tr := obs.FromContext(ctx)
	tr.Add("cache.hits", 1)
	tr.Add("cache.body_hits", 1)
	return body, planner, true
}

// Len returns the current entry count.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
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
// empty ones empty.
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

// cachedPlanner adapts a Planner with read-through caching.
type cachedPlanner struct {
	p    core.Planner
	name string // canonical key name, resolved once by Identity
	opts *core.Options
	c    *Cache
}

// Wrap returns a Planner that consults the cache before delegating to p
// and stores p's successful results. A nil cache returns p unchanged. The
// wrapped planner keeps p's Name, so caching is invisible to result
// tables, and byte-identical to p's output: a hit returns a deep copy of
// exactly what p produced for the equal instance. Keys use Identity:
// the canonical registry name plus p's plan-shaping options when it
// implements Optioned, so planners sharing a name but planning under
// different options never serve each other's entries.
func Wrap(p core.Planner, c *Cache) core.Planner {
	if c == nil {
		return p
	}
	cp := cachedPlanner{p: p, c: c}
	cp.name, cp.opts = Identity(p)
	return cp
}

// Name implements core.Planner.
func (cp cachedPlanner) Name() string { return cp.p.Name() }

// Plan implements core.Planner with read-through memoization.
func (cp cachedPlanner) Plan(ctx context.Context, in *core.Instance) (*core.Schedule, error) {
	key := KeyOf(cp.name, cp.opts, in)
	if s, ok := cp.c.Get(ctx, key); ok {
		return s, nil
	}
	s, err := cp.p.Plan(ctx, in)
	if err != nil {
		return nil, err
	}
	cp.c.Put(ctx, key, s)
	return s, nil
}
