package repro_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/registry"
)

// TestReadmePlannerTable regenerates the planner table from the registry
// and compares it to the block README.md embeds between the
// planner-table markers, so the documented table cannot drift from the
// registered planners. On failure, paste the "want" block into README.
func TestReadmePlannerTable(t *testing.T) {
	const begin, end = "<!-- planner-table:begin -->", "<!-- planner-table:end -->"
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	md := string(data)
	i := strings.Index(md, begin)
	j := strings.Index(md, end)
	if i < 0 || j < 0 || j < i {
		t.Fatalf("README.md lacks the %s / %s markers", begin, end)
	}
	got := strings.TrimSpace(md[i+len(begin) : j])
	want := strings.TrimSpace(plannerTable(registry.List()))
	if got != want {
		t.Errorf("README planner table drifted from the registry.\n--- README has ---\n%s\n--- registry says ---\n%s", got, want)
	}
}

// plannerTable renders the registry's listing as the GitHub-flavoured
// markdown table README.md embeds.
func plannerTable(infos []registry.Info) string {
	var b strings.Builder
	b.WriteString("| Planner | Aliases | Origin | Capabilities | What it does |\n")
	b.WriteString("|---|---|---|---|---|\n")
	for _, info := range infos {
		name := "`" + info.Name + "`"
		if info.Default {
			name += " (default)"
		}
		aliases := "—"
		if len(info.Aliases) > 0 {
			aliases = "`" + strings.Join(info.Aliases, "`, `") + "`"
		}
		origin := "extension"
		if info.Paper {
			origin = "paper"
		}
		var caps []string
		if info.Capabilities.Seeded {
			caps = append(caps, "seeded")
		}
		if info.Capabilities.MultiNode {
			caps = append(caps, "multi-node")
		}
		capCell := "—"
		if len(caps) > 0 {
			capCell = strings.Join(caps, ", ")
		}
		fmt.Fprintf(&b, "| %s | %s | %s | %s | %s |\n", name, aliases, origin, capCell, info.Summary)
	}
	return b.String()
}
