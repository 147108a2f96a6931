package eval

import (
	"fmt"
	"io"
	"strings"
)

// Table is a simple aligned text table used to print the paper's tables and
// figure series.
type Table struct {
	Title  string
	Header []string
	rows   [][]string
}

// NewTable returns a table with the given title and column header.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// AddRow appends a row; cells beyond the header width are dropped, missing
// cells are blank.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Header))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// AddRowf appends a row of formatted values: each argument is rendered with
// %v except float64, which uses %.3f.
func (t *Table) AddRowf(cells ...any) {
	row := make([]string, 0, len(cells))
	for _, c := range cells {
		switch v := c.(type) {
		case float64:
			row = append(row, fmt.Sprintf("%.3f", v))
		case string:
			row = append(row, v)
		default:
			row = append(row, fmt.Sprint(v))
		}
	}
	t.AddRow(row...)
}

// WriteTo renders the table as aligned text.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
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
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.rows {
		line(row)
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// Markdown renders the table as a GitHub-flavoured markdown table (used to
// assemble EXPERIMENTS.md).
func (t *Table) Markdown() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "**%s**\n\n", t.Title)
	}
	b.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(t.Header)) + "\n")
	for _, row := range t.rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	return b.String()
}
