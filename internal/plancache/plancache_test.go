package plancache

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/obs"
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
// ApproPlanners sharing the name "Appro" but planning under different
// core.Options (e.g. MISOrder) aliased to one entry, and the second
// planner was served the first one's stale schedule.
func TestOptionsNoLongerAlias(t *testing.T) {
	in := testInstance(30, 9)

	// Any plan-changing option field must change the key.
	planChanging := map[string]*core.Options{
		"mis-order":  {MISOrder: graph.MISMinDegree},
		"no-sort":    {NoSortByFinishTime: true},
		"mis-random": {MISOrder: graph.MISRandom, Seed: 1},
	}
	base := KeyOf("Appro", nil, in)
	for name, o := range planChanging {
		if KeyOf("Appro", o, in) == base {
			t.Errorf("%s: option set %+v aliases to the default-options key", name, *o)
		}
	}
	r1 := &core.Options{MISOrder: graph.MISRandom, Seed: 1}
	r2 := &core.Options{MISOrder: graph.MISRandom, Seed: 2}
	if KeyOf("Appro", r1, in) == KeyOf("Appro", r2, in) {
		t.Error("under MISRandom the seed changes the plan, so it must change the key")
	}

	// Options inside one plan-equivalence class must keep sharing an
	// entry: defaults spelled explicitly, and Seed under a deterministic
	// MIS order.
	equivalent := map[string]*core.Options{
		"zero":         {},
		"explicit-mis": {MISOrder: graph.MISMaxDegree},
		"unused-seed":  {Seed: 42},
	}
	for name, o := range equivalent {
		if KeyOf("Appro", o, in) != base {
			t.Errorf("%s: plan-equivalent option set %+v does not share the default key", name, *o)
		}
	}

	// End to end through Wrap: each planner gets its own entry and its
	// warm plan equals its own cold plan, not the other planner's.
	c := New(8)
	fast := Wrap(core.ApproPlanner{}, c)
	tuned := Wrap(core.ApproPlanner{Opts: core.Options{MISOrder: graph.MISMinDegree}}, c)
	ctx := context.Background()
	coldFast, err := fast.Plan(ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	coldTuned, err := tuned.Plan(ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 2 || st.Size != 2 {
		t.Fatalf("two differently-optioned planners should occupy two entries: %+v", st)
	}
	warmFast, err := fast.Plan(ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	warmTuned, err := tuned.Plan(ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(coldFast, warmFast) {
		t.Error("default-options planner served a schedule it did not produce")
	}
	if !reflect.DeepEqual(coldTuned, warmTuned) {
		t.Error("tuned planner served a schedule it did not produce")
	}
	if st := c.Stats(); st.Hits != 2 || st.Misses != 2 {
		t.Fatalf("warm replans should both hit their own entries: %+v", st)
	}
}

func TestCacheRoundTripDeepCopies(t *testing.T) {
	c := New(8)
	in := testInstance(10, 2)
	s, err := core.ApproPlanner{}.Plan(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	c.Put(context.Background(), KeyOf("Appro", nil, in), s)
	// Mutating the original after Put must not corrupt the cached copy.
	s.Longest = -1
	s.Tours[0].Stops[0].Covers[0] = -7

	got, ok := c.Get(context.Background(), KeyOf("Appro", nil, in))
	if !ok {
		t.Fatal("expected a hit")
	}
	if got.Longest == -1 || got.Tours[0].Stops[0].Covers[0] == -7 {
		t.Fatal("cache returned memory shared with the Put schedule")
	}
	// Two Gets must not share memory with each other either.
	again, _ := c.Get(context.Background(), KeyOf("Appro", nil, in))
	got.Tours[0].Stops[0].Covers[0] = -9
	if again.Tours[0].Stops[0].Covers[0] == -9 {
		t.Fatal("two Gets share memory")
	}
	if _, ok := c.Get(context.Background(), KeyOf("K-EDF", nil, in)); ok {
		t.Fatal("hit across planner names")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := New(3)
	ctx := context.Background()
	sched := &core.Schedule{Tours: []core.Tour{{}}}
	ins := make([]*core.Instance, 5)
	for i := range ins {
		ins[i] = testInstance(5, int64(100+i))
	}
	for i := 0; i < 3; i++ {
		c.Put(ctx, KeyOf("p", nil, ins[i]), sched)
	}
	// Touch 0 so 1 becomes the LRU victim.
	if _, ok := c.Get(ctx, KeyOf("p", nil, ins[0])); !ok {
		t.Fatal("expected hit on 0")
	}
	c.Put(ctx, KeyOf("p", nil, ins[3]), sched)
	if _, ok := c.Get(ctx, KeyOf("p", nil, ins[1])); ok {
		t.Fatal("LRU entry 1 should have been evicted")
	}
	for _, i := range []int{0, 2, 3} {
		if _, ok := c.Get(ctx, KeyOf("p", nil, ins[i])); !ok {
			t.Fatalf("entry %d missing", i)
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
	in := testInstance(5, 3)
	if _, ok := c.Get(ctx, KeyOf("p", nil, in)); ok {
		t.Fatal("unexpected hit")
	}
	c.Put(ctx, KeyOf("p", nil, in), &core.Schedule{})
	if _, ok := c.Get(ctx, KeyOf("p", nil, in)); !ok {
		t.Fatal("expected hit")
	}
	got := tr.Report().Counters
	if got["cache.hits"] != 1 || got["cache.misses"] != 1 || got["cache.puts"] != 1 {
		t.Fatalf("tracer counters = %v", got)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestNilCacheIsNoOp(t *testing.T) {
	var c *Cache
	in := testInstance(3, 4)
	if _, ok := c.Get(context.Background(), KeyOf("p", nil, in)); ok {
		t.Fatal("nil cache hit")
	}
	c.Put(context.Background(), KeyOf("p", nil, in), &core.Schedule{})
	if c.Len() != 0 || c.Stats() != (Stats{}) {
		t.Fatal("nil cache not empty")
	}
	p := core.ApproPlanner{}
	if got := Wrap(p, nil); got != core.Planner(p) {
		t.Fatal("Wrap(nil cache) should return the planner unchanged")
	}
}

// TestWrapByteIdentical is the cache's determinism guarantee: a warm hit
// returns exactly what the underlying planner produced cold.
func TestWrapByteIdentical(t *testing.T) {
	c := New(8)
	p := Wrap(core.ApproPlanner{}, c)
	if p.Name() != "Appro" {
		t.Fatalf("wrapped name = %q", p.Name())
	}
	in := testInstance(60, 5)
	cold, err := p.Plan(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := p.Plan(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("warm plan differs from cold plan")
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

type failingPlanner struct{}

func (failingPlanner) Name() string { return "failing" }
func (failingPlanner) Plan(context.Context, *core.Instance) (*core.Schedule, error) {
	return nil, errors.New("planner broke")
}

func TestWrapDoesNotCacheErrors(t *testing.T) {
	c := New(4)
	p := Wrap(failingPlanner{}, c)
	in := testInstance(3, 6)
	if _, err := p.Plan(context.Background(), in); err == nil {
		t.Fatal("want error")
	}
	if c.Len() != 0 {
		t.Fatal("error result was cached")
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	c := New(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				in := testInstance(4, int64(i%20))
				name := fmt.Sprintf("p%d", g%3)
				if s, ok := c.Get(context.Background(), KeyOf(name, nil, in)); ok {
					if len(s.Tours) != 1 {
						t.Error("corrupt cached schedule")
						return
					}
				} else {
					c.Put(context.Background(), KeyOf(name, nil, in), &core.Schedule{Tours: []core.Tour{{}}})
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 16 {
		t.Fatalf("cache exceeded capacity: %d", c.Len())
	}
}

func TestCloneNil(t *testing.T) {
	if Clone(nil) != nil {
		t.Fatal("Clone(nil) != nil")
	}
}

// TestCloneKeepsShape checks that Clone keeps nil slices nil and empty
// ones empty and non-nil (WriteSchedule writes the two differently), and
// that an append to one stop's Covers in a copy changes neither its
// neighbours nor the cached entry.
func TestCloneKeepsShape(t *testing.T) {
	orig := &core.Schedule{Tours: []core.Tour{
		{Stops: []core.Stop{{Node: 0, Covers: []int{0, 1}}, {Node: 2, Covers: []int{}}, {Node: 3}, {Node: 4, Covers: []int{4, 5}}}},
		{Stops: []core.Stop{}},
		{},
	}}
	if got := Clone(&core.Schedule{}); got.Tours != nil {
		t.Fatal("Clone turned nil Tours into an empty slice")
	}
	ctx := context.Background()
	c := New(2)
	key := KeyOf("p", nil, testInstance(3, 1))
	c.Put(ctx, key, orig)
	cp, _ := c.Get(ctx, key)
	if !reflect.DeepEqual(cp, orig) { // DeepEqual tells nil from empty
		t.Fatalf("copy %+v differs from the original %+v", cp, orig)
	}
	stops := cp.Tours[0].Stops
	stops[0].Covers = append(stops[0].Covers, 98)
	stops[1].Covers = append(stops[1].Covers, 99)
	if !reflect.DeepEqual(stops[3].Covers, []int{4, 5}) {
		t.Fatalf("an append to a neighbour's Covers overwrote stop 3's: %v", stops[3].Covers)
	}
	if again, _ := c.Get(ctx, key); !reflect.DeepEqual(again, orig) {
		t.Fatalf("an append to a copy changed the cached entry: %+v", again)
	}
}

// TestBodyIndexBounded checks that the body index keeps at most the
// cache's capacity digests however many requests name one entry, and
// that a digest misses once its entry is evicted, or once Put has
// replaced the entry's schedule.
func TestBodyIndexBounded(t *testing.T) {
	ctx := context.Background()
	c := New(2)
	keys := make([]Key, 4)
	for i := range keys {
		keys[i] = KeyOf("p", nil, testInstance(5, int64(200+i)))
	}
	c.Put(ctx, keys[0], &core.Schedule{})
	for i := 0; i < 10; i++ {
		c.Remember(Digest{0, byte(i)}, keys[0], "p", []byte("zero"))
		if n := len(c.byDigest); n > 2 || c.index.Len() != n {
			t.Fatalf("after %d digests the index holds %d (list %d), capacity 2", i+1, n, c.index.Len())
		}
	}
	if _, _, ok := c.Lookup(ctx, Digest{0, 0}); ok {
		t.Fatal("the least recently used digest should have left the index")
	}
	body, name, ok := c.Lookup(ctx, Digest{0, 9})
	if !ok || string(body) != "zero" || name != "p" {
		t.Fatalf("Lookup = %q, %q, %v; want the stored bytes and planner", body, name, ok)
	}

	// Evicting the entry makes its digests miss, and Remember on an
	// evicted key stores nothing.
	c.Put(ctx, keys[1], &core.Schedule{})
	c.Put(ctx, keys[2], &core.Schedule{})
	if _, _, ok := c.Lookup(ctx, Digest{0, 9}); ok {
		t.Fatal("a digest whose entry was evicted hit")
	}
	c.Remember(Digest{1}, keys[0], "p", []byte("zero"))
	if _, _, ok := c.Lookup(ctx, Digest{1}); ok {
		t.Fatal("Remember indexed a digest for an evicted entry")
	}

	// A Put that replaces the schedule drops the stored bytes, so the
	// digest misses.
	c.Remember(Digest{2}, keys[2], "p", []byte("two"))
	c.Put(ctx, keys[2], &core.Schedule{Longest: 7})
	if _, _, ok := c.Lookup(ctx, Digest{2}); ok {
		t.Fatal("a digest outlived the schedule its bytes encode")
	}
	if st := c.Stats(); st.BodyHits != 1 || st.Size != 2 {
		t.Fatalf("stats = %+v, want 1 body hit and 2 entries", st)
	}
}

// BenchmarkPlanCacheHit measures a warm lookup through Wrap — key hash
// plus schedule deep copy — which is what a repeated /v1/plan request
// costs the planning service instead of a cold plan.
func BenchmarkPlanCacheHit(b *testing.B) {
	in := testInstance(400, 2)
	planner := Wrap(core.ApproPlanner{}, New(0))
	if _, err := planner.Plan(context.Background(), in); err != nil {
		b.Fatal(err) // warm the cache
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := planner.Plan(context.Background(), in); err != nil {
			b.Fatal(err)
		}
	}
}
