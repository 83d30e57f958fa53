// Package report renders the paper's tables and figures as aligned ASCII
// (for terminals) and CSV (for downstream plotting).
package report

import (
	"fmt"
	"io"
	"strings"
	"unicode/utf8"
)

// Table is a titled grid with a header row.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// NewTable builds an empty table.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// Add appends one row; short rows are padded, long rows panic (a column
// mismatch is a bug in the producing code, not data).
func (t *Table) Add(cells ...string) {
	if len(cells) > len(t.Columns) {
		panic(fmt.Sprintf("report: row has %d cells, table %d columns", len(cells), len(t.Columns)))
	}
	row := make([]string, len(t.Columns))
	copy(row, cells)
	t.Rows = append(t.Rows, row)
}

// Render writes the table as aligned ASCII.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = utf8.RuneCountInString(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			widths[i] = max(widths[i], utf8.RuneCountInString(cell))
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			b.WriteString(strings.Repeat(" ", widths[i]-utf8.RuneCountInString(cell)))
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	total := len(widths)*2 - 2
	for _, w := range widths {
		total += w
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// RenderCSV writes the table as CSV with a header row. Cells containing
// commas or quotes are quoted.
func (t *Table) RenderCSV(w io.Writer) error {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(cell, ",\"\n") {
				b.WriteByte('"')
				b.WriteString(strings.ReplaceAll(cell, `"`, `""`))
				b.WriteByte('"')
			} else {
				b.WriteString(cell)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Pct formats a percentage the way the paper's tables do (one decimal).
func Pct(v float64) string { return fmt.Sprintf("%.1f", v) }

// MeanErr formats a replicated cell as "mean±stderr" with the given number
// of decimals — the convention every aggregated sweep table uses.
func MeanErr(mean, stderr float64, decimals int) string {
	return fmt.Sprintf("%.*f±%.*f", decimals, mean, decimals, stderr)
}

// MeanErrOrDash formats a replicated cell, or "-" when no trial produced a
// measurable value (mirroring ValueOrDash for single-run tables).
func MeanErrOrDash(mean, stderr float64, decimals int, valid bool) string {
	if !valid {
		return "-"
	}
	return MeanErr(mean, stderr, decimals)
}

// ValueOrDash formats a single-run cell with the given number of decimals,
// or the paper's "-" when the cell is not measurable (e.g. BW on the upload
// side).
func ValueOrDash(v float64, decimals int, valid bool) string {
	if !valid {
		return "-"
	}
	return fmt.Sprintf("%.*f", decimals, v)
}

// Bars renders a horizontal bar chart: one row per label, bar length
// proportional to value, annotated with the numeric value. Used for the
// Figure-1 geographic breakdown.
type Bars struct {
	Title string
	rows  []barRow
	max   float64
}

type barRow struct {
	label string
	value float64
	note  string
}

// NewBars builds an empty chart.
func NewBars(title string) *Bars { return &Bars{Title: title} }

// Add appends one bar.
func (b *Bars) Add(label string, value float64, note string) {
	b.rows = append(b.rows, barRow{label: label, value: value, note: note})
	if value > b.max {
		b.max = value
	}
}

// Render writes the chart, scaling the longest bar to width characters.
func (b *Bars) Render(w io.Writer, width int) error {
	if width <= 0 {
		width = 40
	}
	var sb strings.Builder
	if b.Title != "" {
		sb.WriteString(b.Title)
		sb.WriteByte('\n')
	}
	labelW := 0
	for _, r := range b.rows {
		labelW = max(labelW, utf8.RuneCountInString(r.label))
	}
	for _, r := range b.rows {
		n := 0
		if b.max > 0 {
			n = int(r.value / b.max * float64(width))
		}
		sb.WriteString(r.label)
		sb.WriteString(strings.Repeat(" ", labelW-utf8.RuneCountInString(r.label)))
		sb.WriteString(" |")
		sb.WriteString(strings.Repeat("#", n))
		sb.WriteString(strings.Repeat(" ", width-n))
		sb.WriteString(fmt.Sprintf("| %6.2f", r.value))
		if r.note != "" {
			sb.WriteString("  " + r.note)
		}
		sb.WriteByte('\n')
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// Matrix renders a labelled square matrix of values (the Figure-2 AS-to-AS
// traffic averages), highlighting the diagonal with brackets as the paper
// highlights intra-AS cells in black.
func Matrix(w io.Writer, title string, labels []string, cell func(i, j int) string) error {
	var b strings.Builder
	if title != "" {
		b.WriteString(title)
		b.WriteByte('\n')
	}
	width := 0
	for _, l := range labels {
		width = max(width, utf8.RuneCountInString(l))
	}
	cells := make([][]string, len(labels))
	for i := range labels {
		cells[i] = make([]string, len(labels))
		for j := range labels {
			s := cell(i, j)
			if i == j {
				s = "[" + s + "]"
			}
			cells[i][j] = s
			width = max(width, utf8.RuneCountInString(s))
		}
	}
	pad := func(s string) string { return strings.Repeat(" ", width-utf8.RuneCountInString(s)) + s }
	b.WriteString(pad(""))
	for _, l := range labels {
		b.WriteString(" " + pad(l))
	}
	b.WriteByte('\n')
	for i, l := range labels {
		b.WriteString(pad(l))
		for j := range labels {
			b.WriteString(" " + pad(cells[i][j]))
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}
