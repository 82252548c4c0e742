package plancache

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/registry"
)

func testInstance(n int, seed int64) *core.Instance {
	rng := rand.New(rand.NewSource(seed))
	in := &core.Instance{Depot: geom.Pt(50, 50), Gamma: 2.7, Speed: 1, K: 2}
	for i := 0; i < n; i++ {
		in.Requests = append(in.Requests, core.Request{
			Pos:      geom.Pt(rng.Float64()*100, rng.Float64()*100),
			Duration: (1.2 + 0.3*rng.Float64()) * 3600,
			Lifetime: (1 + rng.Float64()*6) * 86400,
		})
	}
	return in
}

func TestKeyOfSensitivity(t *testing.T) {
	base := testInstance(40, 1)
	baseKey := KeyOf("Appro", nil, base)
	if baseKey != KeyOf("Appro", nil, testInstance(40, 1)) {
		t.Fatal("equal instances must produce equal keys")
	}
	mutate := map[string]func(*core.Instance){
		"depot":     func(in *core.Instance) { in.Depot.X += 1e-9 },
		"gamma":     func(in *core.Instance) { in.Gamma += 1e-9 },
		"speed":     func(in *core.Instance) { in.Speed *= 1.0000001 },
		"k":         func(in *core.Instance) { in.K++ },
		"coord":     func(in *core.Instance) { in.Requests[17].Pos.Y -= 1e-9 },
		"duration":  func(in *core.Instance) { in.Requests[3].Duration += 1 },
		"lifetime":  func(in *core.Instance) { in.Requests[0].Lifetime += 1 },
		"truncated": func(in *core.Instance) { in.Requests = in.Requests[:39] },
		"swapped":   func(in *core.Instance) { r := in.Requests; r[0], r[1] = r[1], r[0] },
	}
	for name, fn := range mutate {
		in := testInstance(40, 1)
		fn(in)
		if KeyOf("Appro", nil, in) == baseKey {
			t.Errorf("%s: mutated instance hashed equal to the original", name)
		}
	}
	if KeyOf("K-EDF", nil, base) == baseKey {
		t.Error("different planner names must produce different keys")
	}
}

// TestOptionsNoLongerAlias is the regression test for the option-aliasing
// bug: the cache used to key on planner name + instance only, so two
// planners sharing one name but planning under different core.Options
// aliased to one entry, and the second planner was served the first one's
// stale schedule. Seed, which only BiLevel reads, is the one option left.
// The serve package's TestPlanOptionsDoNotAlias checks the same end to
// end through /v1/plan.
func TestOptionsNoLongerAlias(t *testing.T) {
	in := testInstance(30, 9)
	base := KeyOf("BiLevel", nil, in)
	s1 := KeyOf("BiLevel", &core.Options{Seed: 1}, in)
	s2 := KeyOf("BiLevel", &core.Options{Seed: 2}, in)
	if s1 == base || s2 == base || s1 == s2 {
		t.Error("BiLevel seeds 0, 1 and 2 plan differently, so they must key apart")
	}
	if KeyOf("BiLevel", &core.Options{}, in) != base {
		t.Error("the zero options must key like nil options")
	}
	// A planner that reads no option exposes none, so every seed it is
	// handed keys to its one entry.
	if name, opts := Identity(registry.MustNew("Appro", &core.Options{Seed: 5})); name != "Appro" || opts != nil {
		t.Errorf("Identity(Appro under Seed 5) = %q, %+v; want Appro and no options", name, opts)
	}
}

// TestCacheRoundTrip checks that Get hands back the bytes and planner
// name Put stored, shared rather than copied, that a second Put under a
// key replaces both, and that one planner's key never hits another's
// entry.
func TestCacheRoundTrip(t *testing.T) {
	ctx := context.Background()
	c := New(8)
	in := testInstance(10, 2)
	key := KeyOf("Appro", nil, in)
	body := []byte(`{"tours": null}`)
	c.Put(ctx, key, "Appro", body)
	got, name, ok := c.Get(ctx, key)
	if !ok || name != "Appro" || !bytes.Equal(got, body) {
		t.Fatalf("Get = %q, %q, %v; want the stored bytes and planner", got, name, ok)
	}
	if &got[0] != &body[0] {
		t.Fatal("Get copied the stored bytes")
	}
	c.Put(ctx, key, "Other", []byte("2"))
	if got, name, _ := c.Get(ctx, key); string(got) != "2" || name != "Other" {
		t.Fatalf("after a second Put, Get = %q, %q", got, name)
	}
	if _, _, ok := c.Get(ctx, KeyOf("K-EDF", nil, in)); ok {
		t.Fatal("hit across planner names")
	}
	if st := c.Stats(); st.Size != 1 || st.Puts != 2 || st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := New(3)
	ctx := context.Background()
	ins := make([]*core.Instance, 5)
	for i := range ins {
		ins[i] = testInstance(5, int64(100+i))
	}
	for i := 0; i < 3; i++ {
		c.Put(ctx, KeyOf("p", nil, ins[i]), "p", []byte{byte(i)})
	}
	// Touch 0 so 1 becomes the LRU victim.
	if _, _, ok := c.Get(ctx, KeyOf("p", nil, ins[0])); !ok {
		t.Fatal("expected hit on 0")
	}
	c.Put(ctx, KeyOf("p", nil, ins[3]), "p", []byte{3})
	if _, _, ok := c.Get(ctx, KeyOf("p", nil, ins[1])); ok {
		t.Fatal("LRU entry 1 should have been evicted")
	}
	for _, i := range []int{0, 2, 3} {
		if body, _, ok := c.Get(ctx, KeyOf("p", nil, ins[i])); !ok || !bytes.Equal(body, []byte{byte(i)}) {
			t.Fatalf("entry %d: Get = %v, %v", i, body, ok)
		}
	}
	st := c.Stats()
	if st.Size != 3 || st.Capacity != 3 || st.Evictions != 1 || st.Puts != 4 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCacheCounters(t *testing.T) {
	tr := obs.New()
	ctx := obs.WithTracer(context.Background(), tr)
	c := New(4)
	key := KeyOf("p", nil, testInstance(5, 3))
	if _, _, ok := c.Get(ctx, key); ok {
		t.Fatal("unexpected hit")
	}
	c.Put(ctx, key, "p", []byte("{}"))
	if _, _, ok := c.Get(ctx, key); !ok {
		t.Fatal("expected hit")
	}
	c.Index(Digest{1}, key)
	if _, _, ok := c.Lookup(ctx, Digest{1}); !ok {
		t.Fatal("expected a body-index hit")
	}
	if _, _, ok := c.Lookup(ctx, Digest{2}); ok {
		t.Fatal("unexpected body-index hit")
	}
	got := tr.Report().Counters
	if got["cache.hits"] != 2 || got["cache.body_hits"] != 1 || got["cache.misses"] != 1 || got["cache.puts"] != 1 {
		t.Fatalf("tracer counters = %v", got)
	}
	st := c.Stats()
	if st.Hits != 2 || st.BodyHits != 1 || st.Misses != 1 || st.Puts != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestNilCacheIsNoOp(t *testing.T) {
	var c *Cache
	ctx := context.Background()
	key := KeyOf("p", nil, testInstance(3, 4))
	if _, _, ok := c.Get(ctx, key); ok {
		t.Fatal("nil cache hit")
	}
	c.Put(ctx, key, "p", []byte("{}"))
	c.Index(Digest{1}, key)
	if _, _, ok := c.Lookup(ctx, Digest{1}); ok {
		t.Fatal("nil cache body-index hit")
	}
	if c.Stats() != (Stats{}) {
		t.Fatal("nil cache not empty")
	}
}

// checkIndex fails t unless the body index and the entries agree: every
// indexed digest names an entry indexed under that digest, and every
// indexed entry is in the index, so the index holds at most one digest
// per entry.
func checkIndex(t *testing.T, c *Cache) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	for d, el := range c.byDigest {
		if e := el.Value.(*entry); !e.indexed || e.digest != d {
			t.Fatalf("digest %x names an entry indexed %v under %x", d[:2], e.indexed, e.digest[:2])
		}
		if c.byKey[el.Value.(*entry).key] != el {
			t.Fatalf("digest %x names an evicted entry", d[:2])
		}
	}
	n := 0
	for el := c.ll.Front(); el != nil; el = el.Next() {
		if el.Value.(*entry).indexed {
			n++
		}
	}
	if n != len(c.byDigest) {
		t.Fatalf("%d entries are indexed, the index holds %d digests", n, len(c.byDigest))
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	c := New(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < 50; i++ {
				name := fmt.Sprintf("p%d", g%3)
				want := fmt.Sprintf("%s/%d", name, i%20)
				key := KeyOf(name, nil, testInstance(4, int64(i%20)))
				d := Digest{byte(g % 3), byte(i % 20)}
				if body, _, ok := c.Lookup(ctx, d); ok && string(body) != want {
					t.Errorf("Lookup answered %q, want %q", body, want)
					return
				}
				if body, planner, ok := c.Get(ctx, key); ok {
					if string(body) != want || planner != name {
						t.Errorf("Get answered %q under %q, want %q under %q", body, planner, want, name)
						return
					}
				} else {
					c.Put(ctx, key, name, []byte(want))
				}
				c.Index(d, key)
			}
		}(g)
	}
	wg.Wait()
	if st := c.Stats(); st.Size > 16 {
		t.Fatalf("cache exceeded capacity: %d", st.Size)
	}
	checkIndex(t, c)
}

func TestCloneNil(t *testing.T) {
	if Clone(nil) != nil {
		t.Fatal("Clone(nil) != nil")
	}
}

// TestCloneKeepsShape checks that Clone keeps nil slices nil and empty
// ones empty and non-nil (WriteSchedule writes the two differently), and
// that an append to one stop's Covers in a copy changes neither its
// neighbours nor the original.
func TestCloneKeepsShape(t *testing.T) {
	orig := &core.Schedule{Tours: []core.Tour{
		{Stops: []core.Stop{{Node: 0, Covers: []int{0, 1}}, {Node: 2, Covers: []int{}}, {Node: 3}, {Node: 4, Covers: []int{4, 5}}}},
		{Stops: []core.Stop{}},
		{},
	}}
	if got := Clone(&core.Schedule{}); got.Tours != nil {
		t.Fatal("Clone turned nil Tours into an empty slice")
	}
	cp := Clone(orig)
	if !reflect.DeepEqual(cp, orig) { // DeepEqual tells nil from empty
		t.Fatalf("copy %+v differs from the original %+v", cp, orig)
	}
	stops := cp.Tours[0].Stops
	stops[0].Covers = append(stops[0].Covers, 98)
	stops[1].Covers = append(stops[1].Covers, 99)
	if !reflect.DeepEqual(stops[3].Covers, []int{4, 5}) {
		t.Fatalf("an append to a neighbour's Covers overwrote stop 3's: %v", stops[3].Covers)
	}
	if !reflect.DeepEqual(orig.Tours[0].Stops[0].Covers, []int{0, 1}) || len(orig.Tours[0].Stops[1].Covers) != 0 {
		t.Fatalf("an append to a copy changed the original: %+v", orig.Tours[0].Stops)
	}
}

// TestBodyIndexBounded checks that an entry is indexed under at most one
// digest however many requests name it, that a digest moves with Index
// from one entry to another, that it leaves the index with its evicted
// entry, and that a Put replacing an entry's bytes keeps its digest.
func TestBodyIndexBounded(t *testing.T) {
	ctx := context.Background()
	c := New(2)
	keys := make([]Key, 4)
	for i := range keys {
		keys[i] = KeyOf("p", nil, testInstance(5, int64(200+i)))
	}
	c.Put(ctx, keys[0], "p", []byte("zero"))
	for i := 0; i < 10; i++ {
		c.Index(Digest{0, byte(i)}, keys[0])
		checkIndex(t, c)
		if n := len(c.byDigest); n != 1 {
			t.Fatalf("after %d digests the index holds %d, want the last one", i+1, n)
		}
	}
	if _, _, ok := c.Lookup(ctx, Digest{0, 0}); ok {
		t.Fatal("a digest the entry was indexed under before still hit")
	}
	body, name, ok := c.Lookup(ctx, Digest{0, 9})
	if !ok || string(body) != "zero" || name != "p" {
		t.Fatalf("Lookup = %q, %q, %v; want the stored bytes and planner", body, name, ok)
	}

	// A digest indexed to another entry moves there, and the entry it
	// left keeps no digest.
	c.Put(ctx, keys[1], "q", []byte("one"))
	c.Index(Digest{0, 9}, keys[1])
	c.Index(Digest{1}, keys[0])
	checkIndex(t, c)
	if body, name, ok := c.Lookup(ctx, Digest{0, 9}); !ok || string(body) != "one" || name != "q" {
		t.Fatalf("moved digest: Lookup = %q, %q, %v; want entry 1", body, name, ok)
	}

	// A Put replacing an entry's bytes keeps its digest.
	c.Put(ctx, keys[1], "q", []byte("ONE"))
	if body, _, ok := c.Lookup(ctx, Digest{0, 9}); !ok || string(body) != "ONE" {
		t.Fatalf("after a second Put, Lookup = %q, %v; want the new bytes", body, ok)
	}

	// Evicting an entry takes its digest out of the index, and Index on
	// an evicted key stores nothing. Entry 0 is now the LRU one.
	c.Put(ctx, keys[2], "p", []byte("two"))
	checkIndex(t, c)
	if _, _, ok := c.Lookup(ctx, Digest{1}); ok {
		t.Fatal("a digest whose entry was evicted hit")
	}
	c.Index(Digest{2}, keys[0])
	checkIndex(t, c)
	if _, _, ok := c.Lookup(ctx, Digest{2}); ok {
		t.Fatal("Index indexed a digest for an evicted entry")
	}
	if st := c.Stats(); st.BodyHits != 3 || st.Size != 2 || len(c.byDigest) != 1 {
		t.Fatalf("stats = %+v with %d digests, want 3 body hits, 2 entries and 1 digest", st, len(c.byDigest))
	}
}

// BenchmarkPlanCacheHit times what a /v1/plan request that decodes to a
// cached instance costs the cache: the key hash and a Get, which hands
// back the stored response bytes without copying them.
func BenchmarkPlanCacheHit(b *testing.B) {
	in := testInstance(400, 2)
	name, opts := Identity(core.ApproPlanner{})
	c := New(0)
	ctx := context.Background()
	c.Put(ctx, KeyOf(name, opts, in), name, []byte("{}"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := c.Get(ctx, KeyOf(name, opts, in)); !ok {
			b.Fatal("cache miss")
		}
	}
}
