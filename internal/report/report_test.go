package report

import (
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tab := NewTable("Demo", "App", "P%", "B%")
	tab.Add("PPLive", "1.3", "12.8")
	tab.Add("SopCast", "3.9", "3.5")
	var b strings.Builder
	if err := tab.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if lines[0] != "Demo" {
		t.Errorf("title line = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "App") {
		t.Errorf("header = %q", lines[1])
	}
	if !strings.Contains(out, "SopCast") || !strings.Contains(out, "12.8") {
		t.Error("cells missing")
	}
	// All data lines align: same rune offset for second column.
	h := strings.Index(lines[1], "P%")
	if h < 0 || !strings.HasPrefix(lines[3][h:], "1.3") {
		t.Errorf("column misaligned:\n%s", out)
	}
}

// TestTablePadsRunes: a column is as wide as its cells' runes, so a
// mean±stderr cell lines up with its header and with a "-" cell.
func TestTablePadsRunes(t *testing.T) {
	tab := NewTable("", "Continuity", "AS B'D%")
	tab.Add("1.000±0.000", "1.6±1.6")
	tab.Add("-", "-")
	var b strings.Builder
	if err := tab.Render(&b); err != nil {
		t.Fatal(err)
	}
	want := "Continuity   AS B'D%\n--------------------\n1.000±0.000  1.6±1.6\n-            -      \n"
	if b.String() != want {
		t.Errorf("rendered\n%s\nwant\n%s", b.String(), want)
	}
}

func TestTableShortRowPadded(t *testing.T) {
	tab := NewTable("", "a", "b", "c")
	tab.Add("x")
	var b strings.Builder
	if err := tab.Render(&b); err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows[0]) != 3 {
		t.Error("short row not padded")
	}
}

func TestTableLongRowPanics(t *testing.T) {
	tab := NewTable("", "a")
	defer func() {
		if recover() == nil {
			t.Error("long row should panic")
		}
	}()
	tab.Add("1", "2")
}

func TestTableCSV(t *testing.T) {
	tab := NewTable("ignored", "name", "value")
	tab.Add("plain", "1")
	tab.Add(`with,comma`, `with"quote`)
	var b strings.Builder
	if err := tab.RenderCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if lines[0] != "name,value" {
		t.Errorf("csv header = %q", lines[0])
	}
	if lines[2] != `"with,comma","with""quote"` {
		t.Errorf("csv quoting = %q", lines[2])
	}
}

func TestPct(t *testing.T) {
	if Pct(12.84) != "12.8" {
		t.Errorf("Pct = %q", Pct(12.84))
	}
	if ValueOrDash(5, 1, false) != "-" {
		t.Error("invalid cell should dash")
	}
	if ValueOrDash(5, 1, true) != "5.0" || ValueOrDash(5.4, 0, true) != "5" {
		t.Error("valid cell should format")
	}
}

func TestBars(t *testing.T) {
	bars := NewBars("Geo")
	bars.Add("CN", 62.5)
	bars.Add("IT", 3.1)
	bars.Add("*", 0)
	var b strings.Builder
	if err := bars.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "Geo") || !strings.Contains(out, "3.10") {
		t.Error("chart content missing")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// CN has the longest bar (50 #), the zero row none.
	if !strings.Contains(lines[1], "|"+strings.Repeat("#", 50)+"|") {
		t.Errorf("max bar not full width: %q", lines[1])
	}
	if strings.Contains(lines[3], "#") {
		t.Errorf("zero bar has marks: %q", lines[3])
	}
}

func TestMatrix(t *testing.T) {
	labels := []string{"AS1", "AS2"}
	var b strings.Builder
	err := Matrix(&b, "Fig2", labels, func(i, j int) string {
		if i == j {
			return "9.9"
		}
		return "1.1"
	})
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "[9.9]") {
		t.Error("diagonal not bracketed")
	}
	if !strings.Contains(out, "1.1") {
		t.Error("off-diagonal missing")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // title, header, two rows
		t.Errorf("matrix lines = %d:\n%s", len(lines), out)
	}
}
