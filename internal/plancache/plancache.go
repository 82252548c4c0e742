// Package plancache memoizes planner outputs by problem instance, so a
// repeated plan request — the common case in the planning service's
// traffic (cmd/wrsn-serve) — costs a hash and a deep copy instead of a
// full planning round. The batch tools keep no cache: the evaluation
// replans every round from fresh residual energies and never plans one
// request set twice.
//
// A Cache maps an instance key to a stored *core.Schedule. The key is the
// FNV-1a (128-bit) hash of a canonical binary encoding of everything the
// planners read: the planner's canonical registry name (see Identity —
// internal/registry panics at init when two planners register one name
// or an alias shadows one, so keys can never alias across algorithms),
// a canonical encoding of the
// plan-shaping core.Options fields (see KeyOf), the depot, gamma, the
// travel speed, K and every request's position, duration and lifetime, in
// request order. Any single difference that can change the plan — one
// coordinate nudged, a different gamma, one more charger, a different
// MISOrder — therefore changes the key (see FuzzPlanCacheKey).
//
// Schedules cross the cache boundary by deep copy in both directions:
// callers may freely mutate what Get returns (the simulator's executor
// does), and a schedule mutated after Put does not corrupt the cached
// value. Eviction is LRU with a bounded entry count.
//
// Cache methods are safe for concurrent use and record cache.hits,
// cache.misses, cache.puts and cache.evictions on any obs.Tracer carried
// by the context, alongside the cache's own Stats.
package plancache

import (
	"container/list"
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/registry"
)

// DefaultCapacity is the entry bound used when New is given a
// non-positive capacity. At paper scale (1200 requests) one cached
// schedule is a few hundred kilobytes, so the default keeps the cache
// under ~100 MB worst case.
const DefaultCapacity = 256

// Key identifies a (planner, options, instance) triple: the 128-bit
// FNV-1a hash of the canonical encoding.
type Key [16]byte

// Hash64 folds the key to 64 bits, the shape consistent hashing wants:
// the serve router scores backends with mix(Hash64 ^ backend) so every
// replica of a fleet agrees on which shard owns a given plan request
// without any coordination. Folding by XOR of the two halves keeps all
// 128 input bits influential.
func (k Key) Hash64() uint64 {
	return binary.LittleEndian.Uint64(k[:8]) ^ binary.LittleEndian.Uint64(k[8:])
}

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

// KeyOf hashes everything the named planner reads from the options and
// the instance. Instances that differ in any field (a coordinate, a
// duration, gamma, speed, K, the depot, the request count or order)
// produce different keys, as do options that differ in any plan-changing
// field; byte-equal inputs — and options inside the same plan-equivalence
// class, see canonOptions — produce equal keys.
func KeyOf(planner string, opts *core.Options, in *core.Instance) Key {
	h := fnv.New128a()
	var buf [8]byte
	f := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	u := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	h.Write([]byte(planner))
	h.Write([]byte{0}) // terminate the name so "AB"+depot can't alias "A"+...
	o := canonOptions(opts)
	u(uint64(o.MISOrder))
	u(uint64(o.Seed))
	if o.NoSortByFinishTime {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
	f(in.Depot.X)
	f(in.Depot.Y)
	f(in.Gamma)
	f(in.Speed)
	u(uint64(in.K))
	u(uint64(len(in.Requests)))
	for _, r := range in.Requests {
		f(r.Pos.X)
		f(r.Pos.Y)
		f(r.Duration)
		f(r.Lifetime)
	}
	var k Key
	h.Sum(k[:0])
	return k
}

// Stats is a cache snapshot.
type Stats struct {
	// Hits and Misses count Get outcomes; Puts counts insertions and
	// Evictions the LRU entries displaced by them.
	Hits, Misses, Puts, Evictions int64
	// Size is the current entry count, bounded by Capacity.
	Size, Capacity int
}

type entry struct {
	key   Key
	sched *core.Schedule
}

// Cache is a bounded LRU of planned schedules. The zero value is not
// usable; call New. All methods are safe for concurrent use and no-ops on
// a nil receiver, so optional caching costs callers a single nil check.
type Cache struct {
	mu                            sync.Mutex
	capacity                      int
	ll                            *list.List // front = most recently used
	byKey                         map[Key]*list.Element
	hits, misses, puts, evictions int64
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
	}
}

// Get returns a deep copy of the schedule cached for the
// planner/options/instance triple, or (nil, false). nil opts means the
// planner's zero (paper-default) options. It records cache.hits or
// cache.misses on any tracer in ctx.
func (c *Cache) Get(ctx context.Context, planner string, opts *core.Options, in *core.Instance) (*core.Schedule, bool) {
	if c == nil {
		return nil, false
	}
	key := KeyOf(planner, opts, in)
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
	s := Clone(el.Value.(*entry).sched)
	c.mu.Unlock()
	obs.FromContext(ctx).Add("cache.hits", 1)
	return s, true
}

// Put stores a deep copy of the schedule under the
// planner/options/instance key, evicting the least recently used entry
// when the cache is full. nil opts means the planner's zero
// (paper-default) options. It records cache.puts (and cache.evictions)
// on any tracer in ctx.
func (c *Cache) Put(ctx context.Context, planner string, opts *core.Options, in *core.Instance, s *core.Schedule) {
	if c == nil || s == nil {
		return
	}
	key := KeyOf(planner, opts, in)
	cp := Clone(s)
	evicted := false
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		el.Value.(*entry).sched = cp
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
		Hits: c.hits, Misses: c.misses, Puts: c.puts, Evictions: c.evictions,
		Size: c.ll.Len(), Capacity: c.capacity,
	}
}

// Clone returns a deep copy of the schedule: no slice is shared with the
// original, so either side may mutate freely.
func Clone(s *core.Schedule) *core.Schedule {
	if s == nil {
		return nil
	}
	out := &core.Schedule{
		Tours:    make([]core.Tour, len(s.Tours)),
		Longest:  s.Longest,
		WaitTime: s.WaitTime,
	}
	for k, t := range s.Tours {
		ct := core.Tour{Delay: t.Delay}
		if t.Stops != nil {
			ct.Stops = make([]core.Stop, len(t.Stops))
			for i, st := range t.Stops {
				cs := st
				if st.Covers != nil {
					cs.Covers = append([]int(nil), st.Covers...)
				}
				ct.Stops[i] = cs
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
	if s, ok := cp.c.Get(ctx, cp.name, cp.opts, in); ok {
		return s, nil
	}
	s, err := cp.p.Plan(ctx, in)
	if err != nil {
		return nil, err
	}
	cp.c.Put(ctx, cp.name, cp.opts, in, s)
	return s, nil
}
