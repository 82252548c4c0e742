// Package registry is the single naming authority for planning
// algorithms: every planner registers exactly once, with a canonical
// name, its accepted aliases, a constructor taking core.Options (whose
// one field, Seed, only planners flagged Seeded read), and honest
// capability flags. Every consumer — the public repro facade,
// wrsn-plan/-sim/-bench, the serving layer's ?planner= resolution and
// /v1/planners listing, and plan-cache key derivation — resolves planner
// names here instead of keeping its own switch statement, so adding an
// algorithm is one package plus one Register call.
//
// Name resolution is case-insensitive over canonical names and aliases.
// Register panics on any collision (two planners under one canonical
// name, or an alias shadowing an existing name or alias): plan-cache
// keys embed the canonical name, so a name collision would silently
// alias two different algorithms' cached schedules. Failing loudly at
// init is the guard.
package registry

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
)

// Capabilities are a planner's honest feature flags. "Honest" is
// enforced by tests (see registry_test.go): a planner flagged Seeded
// must actually fold core.Options.Seed into its plans, and one not
// flagged must plan identically under any seed.
type Capabilities struct {
	// Context: Plan honors ctx cancellation and deadlines mid-plan.
	Context bool `json:"context"`
	// Seeded: core.Options.Seed, the one option, shapes the plan
	// (BiLevel's seeded perturbation) and joins the plan-cache key via
	// plancache.Optioned; the planner stays deterministic per seed.
	Seeded bool `json:"seeded"`
	// MultiNode: stops charge several sensors at once (the paper's
	// one-to-many scheme) rather than one-to-one point charging.
	MultiNode bool `json:"multi_node"`
}

// list returns the set flags as short labels, for tables and listings.
func (c Capabilities) list() []string {
	var out []string
	add := func(on bool, label string) {
		if on {
			out = append(out, label)
		}
	}
	add(c.Context, "ctx")
	add(c.Seeded, "seeded")
	add(c.MultiNode, "multi-node")
	return out
}

// String renders the set flags as a comma-separated list.
func (c Capabilities) String() string { return strings.Join(c.list(), ", ") }

// Entry is one registered planner.
type Entry struct {
	// Name is the canonical display name ("Appro", "K-minMax", ...);
	// it is what Planner.Name() returns and what plan-cache keys embed.
	Name string
	// Aliases resolve to this entry too. Matching is case-insensitive
	// for both the name and the aliases, so aliases only need to cover
	// genuinely different spellings ("kedf" for "K-EDF").
	Aliases []string
	// Summary is a one-line description for listings.
	Summary string
	// Paper marks the five algorithms of the paper's evaluation; the
	// figure harness sweeps exactly these, in registration order.
	Paper bool
	// Caps are the planner's capability flags.
	Caps Capabilities
	// New constructs the planner under the given options. Planners not
	// flagged Seeded ignore them.
	New func(opts core.Options) core.Planner
}

// Info is the serializable view of an Entry (Entry itself carries a
// constructor), used by the /v1/planners listing.
type Info struct {
	Name         string       `json:"name"`
	Aliases      []string     `json:"aliases,omitempty"`
	Summary      string       `json:"summary"`
	Paper        bool         `json:"paper"`
	Capabilities Capabilities `json:"capabilities"`
	Default      bool         `json:"default,omitempty"`
}

// Registry is an ordered, collision-checked planner catalog. The zero
// value is empty and ready to use; the package-level functions operate
// on the default registry populated by builtin.go. Registration happens
// at init time only, so lookups need no locking.
type Registry struct {
	entries []Entry
	index   map[string]int // lowercased name or alias -> entries index
}

// Register adds e to the registry. It panics — at init time, by design —
// when the entry is malformed or any name or alias (case-insensitively)
// collides with an already-registered name or alias: plan-cache keys
// embed the canonical planner name, so a collision would let two
// different algorithms alias to one cached schedule.
func (r *Registry) Register(e Entry) {
	if e.Name == "" {
		panic("registry: entry with empty canonical name")
	}
	if e.New == nil {
		panic(fmt.Sprintf("registry: planner %q has no constructor", e.Name))
	}
	if r.index == nil {
		r.index = make(map[string]int)
	}
	keys := append([]string{e.Name}, e.Aliases...)
	seen := make(map[string]bool, len(keys))
	for _, k := range keys {
		lk := strings.ToLower(k)
		if prev, ok := r.index[lk]; ok {
			panic(fmt.Sprintf("registry: %q of planner %q collides with already-registered planner %q — cache keys would alias",
				k, e.Name, r.entries[prev].Name))
		}
		if seen[lk] {
			panic(fmt.Sprintf("registry: planner %q repeats name/alias %q", e.Name, k))
		}
		seen[lk] = true
	}
	idx := len(r.entries)
	r.entries = append(r.entries, e)
	for lk := range seen {
		r.index[lk] = idx
	}
}

// Lookup resolves a name or alias, case-insensitively. The empty string
// resolves to the default planner (the first registered entry).
func (r *Registry) Lookup(name string) (Entry, bool) {
	if name == "" {
		if len(r.entries) == 0 {
			return Entry{}, false
		}
		return r.entries[0], true
	}
	i, ok := r.index[strings.ToLower(name)]
	if !ok {
		return Entry{}, false
	}
	return r.entries[i], true
}

// New resolves the named planner and constructs it under opts (nil means
// the zero options). The empty name selects the default planner. Unknown
// names return an error listing every valid name, so callers (the HTTP
// 400 body, CLI stderr) need no list of their own.
func (r *Registry) New(name string, opts *core.Options) (core.Planner, error) {
	e, ok := r.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("unknown planner %q (valid: %s; names and aliases are case-insensitive)",
			name, strings.Join(r.Names(), ", "))
	}
	var o core.Options
	if opts != nil {
		o = *opts
	}
	return e.New(o), nil
}

// MustNew is New for names known at compile time; it panics on error.
func (r *Registry) MustNew(name string, opts *core.Options) core.Planner {
	p, err := r.New(name, opts)
	if err != nil {
		panic(err)
	}
	return p
}

// All returns every entry in registration order (the paper's
// presentation order first, extensions after).
func (r *Registry) All() []Entry {
	return append([]Entry(nil), r.entries...)
}

// Names returns the canonical names in registration order.
func (r *Registry) Names() []string {
	out := make([]string, len(r.entries))
	for i, e := range r.entries {
		out[i] = e.Name
	}
	return out
}

// Planners constructs every registered planner under its zero options,
// in registration order.
func (r *Registry) Planners() []core.Planner {
	out := make([]core.Planner, len(r.entries))
	for i, e := range r.entries {
		out[i] = e.New(core.Options{})
	}
	return out
}

// PaperEntries returns the entries flagged Paper, in registration order.
func (r *Registry) PaperEntries() []Entry {
	var out []Entry
	for _, e := range r.entries {
		if e.Paper {
			out = append(out, e)
		}
	}
	return out
}

// PaperPlanners constructs the paper's algorithms under zero options, in
// the paper's presentation order — the set the figure harness sweeps.
func (r *Registry) PaperPlanners() []core.Planner {
	entries := r.PaperEntries()
	out := make([]core.Planner, len(entries))
	for i, e := range entries {
		out[i] = e.New(core.Options{})
	}
	return out
}

// PaperNames returns the paper algorithms' canonical names in
// presentation order.
func (r *Registry) PaperNames() []string {
	entries := r.PaperEntries()
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = e.Name
	}
	return out
}

// List returns the serializable planner listing, in registration order,
// with sorted aliases and the default planner marked.
func (r *Registry) List() []Info {
	out := make([]Info, len(r.entries))
	for i, e := range r.entries {
		aliases := append([]string(nil), e.Aliases...)
		sort.Strings(aliases)
		out[i] = Info{
			Name:         e.Name,
			Aliases:      aliases,
			Summary:      e.Summary,
			Paper:        e.Paper,
			Capabilities: e.Caps,
			Default:      i == 0,
		}
	}
	return out
}

// MarkdownTable renders the registered planners as a GitHub-flavored
// markdown table. README.md embeds it between planner-table markers and
// a test regenerates and compares, so the documented table cannot drift
// from the code.
func (r *Registry) MarkdownTable() string {
	var b strings.Builder
	b.WriteString("| Planner | Aliases | Origin | Capabilities | What it does |\n")
	b.WriteString("|---|---|---|---|---|\n")
	for i, e := range r.entries {
		aliases := "—"
		if len(e.Aliases) > 0 {
			sorted := append([]string(nil), e.Aliases...)
			sort.Strings(sorted)
			aliases = "`" + strings.Join(sorted, "`, `") + "`"
		}
		origin := "extension"
		if e.Paper {
			origin = "paper"
		}
		name := "`" + e.Name + "`"
		if i == 0 {
			name += " (default)"
		}
		fmt.Fprintf(&b, "| %s | %s | %s | %s | %s |\n",
			name, aliases, origin, e.Caps.String(), e.Summary)
	}
	return b.String()
}

// std is the default registry, populated by builtin.go at init.
var std Registry

// Register adds a planner to the default registry; see Registry.Register
// for the collision panics.
func Register(e Entry) { std.Register(e) }

// Lookup resolves a name or alias in the default registry.
func Lookup(name string) (Entry, bool) { return std.Lookup(name) }

// New resolves and constructs a planner from the default registry.
func New(name string, opts *core.Options) (core.Planner, error) { return std.New(name, opts) }

// MustNew is New panicking on unknown names.
func MustNew(name string, opts *core.Options) core.Planner { return std.MustNew(name, opts) }

// All returns every registered entry in registration order.
func All() []Entry { return std.All() }

// Names returns the canonical planner names in registration order.
func Names() []string { return std.Names() }

// Planners constructs every registered planner under zero options.
func Planners() []core.Planner { return std.Planners() }

// PaperEntries returns the paper's five algorithms' entries.
func PaperEntries() []Entry { return std.PaperEntries() }

// PaperPlanners constructs the paper's five algorithms, paper order.
func PaperPlanners() []core.Planner { return std.PaperPlanners() }

// PaperNames returns the paper algorithms' names, paper order.
func PaperNames() []string { return std.PaperNames() }

// List returns the serializable listing of the default registry.
func List() []Info { return std.List() }

// MarkdownTable renders the default registry's planner table.
func MarkdownTable() string { return std.MarkdownTable() }
