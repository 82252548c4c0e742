package registry_test

import (
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/plancache"
	"repro/internal/registry"
)

// testInstance builds a dense planning instance: enough requests inside
// shared charging range that option changes have room to change plans
// and multi-node planners actually group sensors.
func testInstance(seed int64, n int) *core.Instance {
	rng := rand.New(rand.NewSource(seed))
	in := &core.Instance{Depot: geom.Pt(50, 50), Gamma: 2.7, Speed: 1, K: 2}
	for i := 0; i < n; i++ {
		in.Requests = append(in.Requests, core.Request{
			Pos:      geom.Pt(rng.Float64()*25, rng.Float64()*25),
			Duration: (1.2 + 0.3*rng.Float64()) * 3600,
			Lifetime: (1 + rng.Float64()*6) * 86400,
		})
	}
	return in
}

func TestNamesOrder(t *testing.T) {
	want := []string{"Appro", "K-EDF", "NETWRAP", "AA", "K-minMax", "BiLevel"}
	if got := registry.Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	paper := registry.PaperPlanners()
	if len(paper) != 5 {
		t.Fatalf("PaperPlanners() returned %d planners, want 5", len(paper))
	}
	for i, p := range paper {
		if p.Name() != want[i] {
			t.Errorf("PaperPlanners()[%d].Name() = %q, want %q", i, p.Name(), want[i])
		}
	}
	ps := registry.Planners()
	if len(ps) != len(want) {
		t.Fatalf("Planners() returned %d planners, want %d", len(ps), len(want))
	}
	for i, p := range ps {
		if p.Name() != want[i] {
			t.Errorf("Planners()[%d].Name() = %q, want %q", i, p.Name(), want[i])
		}
	}
}

// TestRoundTrip resolves every canonical name, every alias, and shouty
// and lowercase variants of each, and requires them all to construct a
// planner whose Name() is the entry's canonical name.
func TestRoundTrip(t *testing.T) {
	for _, e := range registry.List() {
		spellings := []string{e.Name, strings.ToLower(e.Name), strings.ToUpper(e.Name)}
		for _, a := range e.Aliases {
			spellings = append(spellings, a, strings.ToLower(a), strings.ToUpper(a))
		}
		for _, s := range spellings {
			got, ok := registry.Lookup(s)
			if !ok {
				t.Errorf("Lookup(%q) failed", s)
				continue
			}
			if got.Name != e.Name {
				t.Errorf("Lookup(%q) resolved to %q, want %q", s, got.Name, e.Name)
			}
			p, err := registry.New(s, nil)
			if err != nil {
				t.Errorf("New(%q): %v", s, err)
				continue
			}
			if p.Name() != e.Name {
				t.Errorf("New(%q).Name() = %q, want %q", s, p.Name(), e.Name)
			}
		}
	}
}

func TestDefaultAndUnknown(t *testing.T) {
	e, ok := registry.Lookup("")
	if !ok || e.Name != "Appro" {
		t.Fatalf(`Lookup("") = %+v, %v; want the Appro default`, e, ok)
	}
	p, err := registry.New("", nil)
	if err != nil || p.Name() != "Appro" {
		t.Fatalf(`New("") = %v, %v; want Appro`, p, err)
	}
	_, err = registry.New("Dijkstra", nil)
	if err == nil {
		t.Fatal("unknown planner accepted")
	}
	// The error is the CLI's and the HTTP 400's body: it must name every
	// valid planner so the caller can self-serve.
	for _, name := range registry.Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-planner error %q does not mention %q", err, name)
		}
	}
}

// TestRegisterCollisionsPanic exercises the init-time guard on fresh
// registries: duplicate canonical names (any case), aliases shadowing
// names, duplicate aliases, and malformed entries must all panic —
// plan-cache keys embed the canonical name, so a collision would alias
// two algorithms' cached schedules.
func TestRegisterCollisionsPanic(t *testing.T) {
	newP := func(core.Options) core.Planner { return core.ApproPlanner{} }
	base := registry.Entry{Name: "Alpha", Aliases: []string{"al"}, New: newP}
	cases := []struct {
		name string
		dup  registry.Entry
	}{
		{"duplicate name", registry.Entry{Name: "Alpha", New: newP}},
		{"duplicate name case-insensitive", registry.Entry{Name: "ALPHA", New: newP}},
		{"alias shadows name", registry.Entry{Name: "Beta", Aliases: []string{"alpha"}, New: newP}},
		{"name shadows alias", registry.Entry{Name: "AL", New: newP}},
		{"duplicate alias", registry.Entry{Name: "Beta", Aliases: []string{"AL"}, New: newP}},
		{"self-repeated key", registry.Entry{Name: "Beta", Aliases: []string{"beta"}, New: newP}},
		{"empty name", registry.Entry{New: newP}},
		{"nil constructor", registry.Entry{Name: "Beta"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var r registry.Registry
			r.Register(base)
			defer func() {
				if recover() == nil {
					t.Errorf("Register(%+v) did not panic", tc.dup)
				}
			}()
			r.Register(tc.dup)
		})
	}
}

// TestCapabilityFlagsHonest checks the flags against planner behavior,
// after checking what core.Planner requires of every registered planner:
// a pre-cancelled context aborts the plan with an error.
//
//   - Seeded: the planner exposes its options via plancache.Optioned, so
//     the seed joins the cache key, and seeds 1 and 2 plan differently.
//     A planner not flagged Seeded plans identically under any seed and
//     does not implement Optioned, so its seed cannot split one plan
//     across cache entries.
//   - MultiNode: on a dense instance some stop covers several sensors;
//     one-to-one planners must only emit self-covering stops.
func TestCapabilityFlagsHonest(t *testing.T) {
	in := testInstance(7, 60)
	ctx := context.Background()
	cancelled, cancel := context.WithCancel(ctx)
	cancel()

	for _, name := range registry.Names() {
		e, _ := registry.Lookup(name)
		t.Run(e.Name, func(t *testing.T) {
			if _, err := e.New(core.Options{}).Plan(cancelled, in); err == nil {
				t.Errorf("%s: planned under a cancelled context", e.Name)
			}
			_, optioned := e.New(core.Options{}).(plancache.Optioned)
			if e.Caps.Seeded {
				if !optioned {
					t.Errorf("%s: flagged Seeded but does not implement plancache.Optioned", e.Name)
				}
				a := mustPlan(t, e.New(core.Options{Seed: 1}), in)
				b := mustPlan(t, e.New(core.Options{Seed: 2}), in)
				if reflect.DeepEqual(a, b) {
					t.Errorf("%s: flagged Seeded but seeds 1 and 2 plan identically", e.Name)
				}
			} else {
				if optioned {
					t.Errorf("%s: not flagged Seeded but implements plancache.Optioned", e.Name)
				}
				a := mustPlan(t, e.New(core.Options{}), in)
				b := mustPlan(t, e.New(core.Options{Seed: 99}), in)
				if !reflect.DeepEqual(a, b) {
					t.Errorf("%s: not flagged Seeded but Seed 99 changed the plan", e.Name)
				}
			}
			s := mustPlan(t, e.New(core.Options{}), in)
			multi := false
			for _, tour := range s.Tours {
				for _, stop := range tour.Stops {
					if len(stop.Covers) > 1 {
						multi = true
					} else if !e.Caps.MultiNode && (len(stop.Covers) != 1 || stop.Covers[0] != stop.Node) {
						t.Errorf("%s: not flagged MultiNode but emitted a non-self-covering stop", e.Name)
					}
				}
			}
			if e.Caps.MultiNode && !multi {
				t.Errorf("%s: flagged MultiNode but no stop covers more than one sensor on a dense instance", e.Name)
			}
		})
	}
}

func mustPlan(t *testing.T, p core.Planner, in *core.Instance) *core.Schedule {
	t.Helper()
	s, err := p.Plan(context.Background(), in)
	if err != nil {
		t.Fatalf("%s: %v", p.Name(), err)
	}
	return s
}

// TestIdentityCanonicalizes pins the plan-cache identity contract:
// aliased and lowercased spellings resolve to one canonical cache name,
// and differently-seeded BiLevel planners expose different options (and
// therefore different cache keys).
func TestIdentityCanonicalizes(t *testing.T) {
	for _, spelling := range []string{"BiLevel", "bilevel", "bi-level", "BLM"} {
		p := registry.MustNew(spelling, &core.Options{Seed: 1})
		name, opts := plancache.Identity(p)
		if name != "BiLevel" {
			t.Errorf("Identity(New(%q)) name = %q, want BiLevel", spelling, name)
		}
		if opts == nil || opts.Seed != 1 {
			t.Errorf("Identity(New(%q)) opts = %+v, want Seed 1 preserved", spelling, opts)
		}
	}
	in := testInstance(3, 20)
	k1 := plancacheKey(t, registry.MustNew("BiLevel", &core.Options{Seed: 1}), in)
	k2 := plancacheKey(t, registry.MustNew("BiLevel", &core.Options{Seed: 2}), in)
	if k1 == k2 {
		t.Error("BiLevel Seed 1 and Seed 2 share a cache key — seeds would alias")
	}
}

func plancacheKey(t *testing.T, p core.Planner, in *core.Instance) plancache.Key {
	t.Helper()
	name, opts := plancache.Identity(p)
	return plancache.KeyOf(name, opts, in)
}

func TestList(t *testing.T) {
	infos := registry.List()
	if len(infos) != len(registry.Names()) {
		t.Fatalf("List() has %d entries, registry %d", len(infos), len(registry.Names()))
	}
	for i, info := range infos {
		if info.Default != (i == 0) {
			t.Errorf("List()[%d].Default = %v", i, info.Default)
		}
		if info.Summary == "" {
			t.Errorf("List()[%d] (%s) has no summary", i, info.Name)
		}
	}
}
