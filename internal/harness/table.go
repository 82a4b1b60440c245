// Package harness regenerates every table and figure of the paper's
// evaluation, one function per exhibit. Three kinds of experiment feed it:
//
//   - measured: real training runs of the reduced models on SynthImageNet
//     (Figures 1, 4, 5, 6; Tables 5, 7, and the measured columns of 3/10),
//   - simulated: the calibrated cluster model (Tables 1, 2, 8, 9; Figures
//     3, 7),
//   - analytic: closed-form counts and constants (Tables 6, 11, 12;
//     Figures 8, 9, 10; Table 4's prior-work rows).
//
// Every function returns a Table that renders as aligned text or Markdown;
// cmd/experiments stitches them into EXPERIMENTS.md.
package harness

import (
	"fmt"
	"strings"
)

// Table is a formatted experiment result.
type Table struct {
	ID     string // e.g. "Table 7", "Figure 4"
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
	// Volatile marks a table whose numeric cells are measured timings
	// rather than deterministic arithmetic. Markdown output then carries
	// the VolatileMarker comment, which tells the docs-drift check to
	// compare the section's shape (every digit run normalized) instead of
	// its exact bytes — so timing tables can ride in the drift-checked
	// document without failing on every machine.
	Volatile bool
}

// VolatileMarker is the comment line Markdown emits for Volatile tables;
// cmd/docsdrift switches to shape comparison when it sees it.
const VolatileMarker = "<!-- volatile: measured timings; docs-drift compares shape only -->"

// Add appends one row; cell counts should match the header.
func (t *Table) Add(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Note records a caption line.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// widths returns the maximum cell width per column.
func (t *Table) widths() []int {
	w := make([]int, len(t.Header))
	for i, h := range t.Header {
		w[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i >= len(w) {
				w = append(w, len(c))
			} else if len(c) > w[i] {
				w[i] = len(c)
			}
		}
	}
	return w
}

// String renders the table as aligned plain text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	w := t.widths()
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", w[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", w[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Markdown renders the table as a GitHub-flavoured Markdown section.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	if t.Volatile {
		b.WriteString(VolatileMarker + "\n\n")
	}
	fmt.Fprintf(&b, "| %s |\n", strings.Join(t.Header, " | "))
	fmt.Fprintf(&b, "|%s\n", strings.Repeat(" --- |", len(t.Header)))
	for _, row := range t.Rows {
		fmt.Fprintf(&b, "| %s |\n", strings.Join(row, " | "))
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n_%s_\n", n)
	}
	b.WriteByte('\n')
	return b.String()
}
