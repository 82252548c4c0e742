package export

import (
	"strings"
	"testing"
)

func TestWriteText(t *testing.T) {
	tb := NewTable("My Title", "name", "value")
	tb.AddRow("alpha", "1")
	tb.AddRow("longer-name", "22")
	var sb strings.Builder
	if err := tb.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "My Title\n") {
		t.Errorf("missing title:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, two rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	// Columns aligned: "value" column starts at the same offset in each
	// data row.
	h := strings.Index(lines[1], "value")
	if h < 0 || !strings.HasPrefix(lines[3][h:], "1") || !strings.HasPrefix(lines[4][h:], "22") {
		t.Errorf("columns not aligned:\n%s", out)
	}
}

func TestWriteTextNoTitle(t *testing.T) {
	tb := NewTable("", "a")
	tb.AddRow("x")
	var sb strings.Builder
	if err := tb.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.HasPrefix(sb.String(), "\n") {
		t.Error("empty title should not emit a blank line")
	}
}

func TestAddRowShapes(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow("only-one")
	tb.AddRow("x", "y", "dropped")
	var sb strings.Builder
	if err := tb.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	want := "a,b\nonly-one,\nx,y\n"
	if sb.String() != want {
		t.Errorf("CSV = %q, want %q", sb.String(), want)
	}
}

func TestWriteCSVQuoting(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow("has,comma", `has"quote`)
	var sb strings.Builder
	if err := tb.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `"has,comma"`) {
		t.Errorf("comma cell not quoted: %q", out)
	}
	if !strings.Contains(out, `\"`) && !strings.Contains(out, `""`) {
		t.Errorf("quote cell not escaped: %q", out)
	}
}

func TestFormatters(t *testing.T) {
	if got := F(3.14159, 2); got != "3.14" {
		t.Errorf("F = %q", got)
	}
	if got := I(42); got != "42" {
		t.Errorf("I = %q", got)
	}
	if got := Sprintf("%s-%d", "x", 7); got != "x-7" {
		t.Errorf("Sprintf = %q", got)
	}
}
