// Package export renders the benchmark harness's results as aligned text
// tables and CSV, matching the rows/series the paper's figures report.
package export

import (
	"io"
	"strconv"
	"strings"
)

// Table is a simple column-oriented table.
type Table struct {
	// Title is printed above the table when non-empty.
	Title string
	// Header holds the column names.
	Header []string
	rows   [][]string
}

// NewTable creates a table with the given title and column names.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// AddRow appends a row; cells beyond the header width are dropped and
// missing cells are left empty.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Header))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// WriteText renders the table with aligned columns.
func (t *Table) WriteText(w io.Writer) error {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			for pad := len(c); pad < widths[i]; pad++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteCSV renders the table as RFC-4180-ish CSV (quotes only when needed).
func (t *Table) WriteCSV(w io.Writer) error {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				b.WriteString(strconv.Quote(c))
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, row := range t.rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// F formats a float with the given number of decimals — the cell helper
// used by the harness.
func F(v float64, decimals int) string {
	return strconv.FormatFloat(v, 'f', decimals, 64)
}

// I formats an int.
func I(v int) string { return strconv.Itoa(v) }
