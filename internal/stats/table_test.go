package stats

import (
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tab := NewTable("Demo", "x", "y")
	tab.AddRow("1", "10")
	tab.AddRow(FormatFloat(2), FormatFloat(20.5))
	tab.AddRow("3") // short row padded
	var sb strings.Builder
	if err := tab.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Demo", "x", "y", "20.5000", "---"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 6 { // title, header, rule, 3 rows
		t.Errorf("line count = %d:\n%s", len(lines), out)
	}
}

func TestTableRenderCSV(t *testing.T) {
	tab := NewTable("", "a", "b")
	tab.AddRow("1", `va"l,ue`)
	var sb strings.Builder
	if err := tab.RenderCSV(&sb); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n1,\"va\"\"l,ue\"\n"
	if sb.String() != want {
		t.Errorf("csv = %q, want %q", sb.String(), want)
	}
}

func TestSeriesTable(t *testing.T) {
	s1 := Series{Name: "optimal", Points: []Point{{X: 1, Y: 10}, {X: 2, Y: 20}}}
	s2 := Series{Name: "random", Points: []Point{{X: 1, Y: 5}, {X: 3, Y: 7}}}
	tab := SeriesTable("Fig", "N", s1, s2)
	if len(tab.Headers) != 3 || tab.Headers[1] != "optimal" {
		t.Fatalf("headers = %v", tab.Headers)
	}
	if len(tab.Rows) != 3 { // x = 1, 2, 3
		t.Fatalf("rows = %v", tab.Rows)
	}
	// x=2 exists only in s1; the s2 cell must be empty.
	if tab.Rows[1][2] != "" {
		t.Errorf("missing point should render empty, got %q", tab.Rows[1][2])
	}
	if tab.Rows[2][1] != "" || tab.Rows[2][2] != "7" {
		t.Errorf("row 3 = %v", tab.Rows[2])
	}
}
