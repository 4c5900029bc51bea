package stats

import (
	"io"
	"strings"
)

// Table is a simple column-aligned text table used to render the
// paper's figures as rows of numbers (one column per series).
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	for len(cells) < len(t.Headers) {
		cells = append(cells, "")
	}
	t.Rows = append(t.Rows, cells)
}

// Render writes the table to w in aligned plain text.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title)
		sb.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			if i < len(cells)-1 {
				sb.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Headers)
	rule := make([]string, len(t.Headers))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	writeRow(rule)
	for _, row := range t.Rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// RenderCSV writes the table as CSV (headers first) to w.
func (t *Table) RenderCSV(w io.Writer) error {
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(esc(c))
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Headers)
	for _, row := range t.Rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// SeriesTable lays several series with a shared X axis out as a
// table: first column X, one column per series.
func SeriesTable(title, xLabel string, series ...Series) *Table {
	headers := append([]string{xLabel}, make([]string, len(series))...)
	for i, s := range series {
		headers[i+1] = s.Name
	}
	t := NewTable(title, headers...)
	// Collect the union of X values in first-appearance order.
	var xs []float64
	seen := map[float64]bool{}
	for _, s := range series {
		for _, p := range s.Points {
			if !seen[p.X] {
				seen[p.X] = true
				xs = append(xs, p.X)
			}
		}
	}
	lookup := make([]map[float64]Point, len(series))
	for i, s := range series {
		lookup[i] = make(map[float64]Point, len(s.Points))
		for _, p := range s.Points {
			lookup[i][p.X] = p
		}
	}
	for _, x := range xs {
		cells := make([]string, 0, len(series)+1)
		cells = append(cells, FormatFloat(x))
		for i := range series {
			if p, ok := lookup[i][x]; ok {
				cells = append(cells, FormatFloat(p.Y))
			} else {
				cells = append(cells, "")
			}
		}
		t.AddRow(cells...)
	}
	return t
}
