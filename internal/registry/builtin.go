package registry

import (
	"repro/internal/baselines"
	"repro/internal/bilevel"
	"repro/internal/core"
)

// The built-in planner catalog: the paper's five algorithms in its
// presentation order (Appro first — it is also the default planner —
// then the four baselines of Section VI-A), followed by this
// reproduction's extensions. Each planner has exactly this one
// registration site; adding an algorithm is its own package plus one
// Register call here.
func init() {
	Register(Entry{
		Name:    "Appro",
		Summary: "the paper's Algorithm 1: MIS sojourn selection, K-minMax tours, finish-time-sorted insertion",
		Paper:   true,
		Caps:    Capabilities{Context: true, MultiNode: true},
		New:     func(core.Options) core.Planner { return core.ApproPlanner{} },
	})
	Register(Entry{
		Name:    "K-EDF",
		Aliases: []string{"kedf"},
		Summary: "earliest-deadline-first dispatch in groups of K with Hungarian travel assignment",
		Paper:   true,
		Caps:    Capabilities{Context: true},
		New:     func(core.Options) core.Planner { return baselines.KEDF{} },
	})
	Register(Entry{
		Name:    "NETWRAP",
		Summary: "greedy on-demand baseline: each free charger picks the best travel/lifetime tradeoff",
		Paper:   true,
		Caps:    Capabilities{Context: true},
		New:     func(core.Options) core.Planner { return baselines.NETWRAP{} },
	})
	Register(Entry{
		Name:    "AA",
		Summary: "k-means partition baseline: one charger tours each spatial cluster",
		Paper:   true,
		Caps:    Capabilities{Context: true},
		New:     func(core.Options) core.Planner { return baselines.AA{} },
	})
	Register(Entry{
		Name:    "K-minMax",
		Aliases: []string{"kminmax"},
		Summary: "strongest one-to-one baseline: K node-disjoint min-max closed tours over all sensors",
		Paper:   true,
		Caps:    Capabilities{Context: true},
		New:     func(core.Options) core.Planner { return baselines.KMinMax{} },
	})
	Register(Entry{
		Name:    "BiLevel",
		Aliases: []string{"bi-level", "blm"},
		Summary: "bi-level metaheuristic: seeded MIS stop-subset perturbation outside, min-max tours inside",
		Caps:    Capabilities{Context: true, Seeded: true, MultiNode: true},
		New:     func(o core.Options) core.Planner { return bilevel.Planner{Opts: o} },
	})
}
