package plot

import (
	"bytes"
	"encoding/xml"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"napawine/internal/golden"
)

// wellFormed fails the test unless the document parses as XML end to end —
// the TestMain-level guarantee that no emitted artifact is ever a broken
// document. Every render in this package's tests must pass through here.
func wellFormed(t *testing.T, svg []byte) {
	t.Helper()
	for dec := xml.NewDecoder(bytes.NewReader(svg)); ; {
		if _, err := dec.Token(); err == io.EOF {
			return
		} else if err != nil {
			t.Fatalf("emitted SVG is not well-formed XML: %v\n%s", err, svg)
		}
	}
}

// goldenLine is the seed-fixed series fixture: two series over the same
// instants, one carrying a ±stderr band, plus a NaN hole that must split
// the line, exercising every path command the renderer emits.
func goldenLine() *Line {
	x := []float64{0, 30, 60, 90, 120, 150}
	return &Line{
		Title:  "Continuity — scenario \"flash<crowd>\"",
		XLabel: "virtual time",
		YLabel: "continuity",
		XTime:  true,
		Series: []Series{
			{
				Name: "PPLive",
				X:    x,
				Y:    []float64{0.91, 0.94, math.NaN(), 0.97, 0.96, 0.98},
			},
			{
				Name: "TVAnts",
				X:    x,
				Y:    []float64{0.88, 0.9, 0.93, 0.92, 0.95, 0.94},
				Lo:   []float64{0.86, 0.88, 0.91, 0.9, 0.93, 0.92},
				Hi:   []float64{0.9, 0.92, 0.95, 0.94, 0.97, 0.96},
			},
		},
	}
}

// goldenBar is the pivot fixture: three groups × two series with whiskers
// and one unmeasured cell (the tables' dash convention).
func goldenBar() *Bar {
	return &Bar{
		Title:  "Study \"strategy-comparison\" — Source kbps",
		YLabel: "kbps",
		Groups: []string{"PPLive urgent-random", "PPLive rarest", "TVAnts rarest"},
		Series: []BarSeries{
			{
				Name: "Source kbps",
				Vals: []float64{412.5, 388.25, 501},
				Errs: []float64{12.5, 9.75, 0},
			},
			{
				Name:  "Intra-AS%",
				Vals:  []float64{41.2, 0, 38.9},
				Errs:  []float64{2.1, 0, 1.4},
				Valid: []bool{true, false, true},
			},
		},
	}
}

func renderTo(t *testing.T, c Artifact) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.Chart.Render(&buf); err != nil {
		t.Fatal(err)
	}
	wellFormed(t, buf.Bytes())
	return buf.Bytes()
}

func TestLineGolden(t *testing.T) {
	got := renderTo(t, Artifact{"line", goldenLine()})
	golden.Check(t, "testdata/line.svg", got)
}

func TestBarGolden(t *testing.T) {
	got := renderTo(t, Artifact{"bar", goldenBar()})
	golden.Check(t, "testdata/bar.svg", got)
}

// TestEmptyAndDegenerateInputs: charts over no data, single points and
// all-NaN series must still render well-formed documents, never panic or
// emit broken paths. An empty value range widens to one unit; a band of
// one point, a series whose Y and X differ in length and a bar that is not
// finite draw nothing; a negative bar hangs from the zero line.
func TestEmptyAndDegenerateInputs(t *testing.T) {
	for _, tc := range []struct {
		c         Artifact
		has, hasn []string
	}{
		{c: Artifact{"empty-line", &Line{Title: "empty"}}},
		{c: Artifact{"one-point", &Line{Series: []Series{{Name: "p", X: []float64{5}, Y: []float64{2}}}}}},
		{c: Artifact{"all-nan", &Line{Series: []Series{{Name: "n", X: []float64{0, 1}, Y: []float64{math.NaN(), math.Inf(1)}}}}}},
		{c: Artifact{"flat", &Line{Series: []Series{{Name: "f", X: []float64{0, 1}, Y: []float64{3, 3}}}}}},
		{c: Artifact{"flat-zero", &Line{Series: []Series{{Name: "z", X: []float64{0, 1}, Y: []float64{0, 0}}}}},
			has: []string{">1.0</text>", "<path"}},
		{c: Artifact{"one-point-band", &Line{Series: []Series{{Name: "b", X: []float64{0}, Y: []float64{1}, Lo: []float64{0}, Hi: []float64{2}}}}},
			hasn: []string{"fill-opacity"}},
		{c: Artifact{"ragged", &Line{Series: []Series{{Name: "r", X: []float64{0, 1}, Y: []float64{1}}}}},
			hasn: []string{"<path"}},
		{c: Artifact{"empty-bar", &Bar{Title: "empty"}}},
		{c: Artifact{"no-series-bar", &Bar{Groups: []string{"lonely-group"}}}, hasn: []string{"lonely-group"}},
		{c: Artifact{"no-valid-bar", &Bar{Groups: []string{"g"}, Series: []BarSeries{{Name: "s", Vals: []float64{1}, Valid: []bool{false}}}}}},
		{c: Artifact{"zero-bar", &Bar{Groups: []string{"g"}, Series: []BarSeries{{Name: "s", Vals: []float64{0}}}}},
			has: []string{">1.0</text>", `height="0.00" rx="2"`}},
		{c: Artifact{"nan-bar", &Bar{Groups: []string{"g"}, Series: []BarSeries{{Name: "s", Vals: []float64{math.NaN()}}}}},
			hasn: []string{`rx="2"`}},
		{c: Artifact{"negative-bar", &Bar{Groups: []string{"g"}, Series: []BarSeries{{Name: "s", Vals: []float64{-2}}}}},
			has: []string{`y="52.00" width="18.00" height="264.00"`}},
	} {
		svg := string(renderTo(t, tc.c))
		if !strings.Contains(svg, "</svg>") || strings.Contains(svg, "NaN") {
			t.Errorf("%s: truncated document or a NaN coordinate", tc.c.Name)
		}
		for _, s := range tc.has {
			if !strings.Contains(svg, s) {
				t.Errorf("%s: no %q in\n%s", tc.c.Name, s, svg)
			}
		}
		for _, s := range tc.hasn {
			if strings.Contains(svg, s) {
				t.Errorf("%s: %q in\n%s", tc.c.Name, s, svg)
			}
		}
	}
}

// TestCoordHasNoNegativeZero: a coordinate that rounds to zero from below
// prints as 0.00, so the bytes do not depend on the side it came from.
func TestCoordHasNoNegativeZero(t *testing.T) {
	if got := coord(-0.001); got != "0.00" {
		t.Errorf("coord(-0.001) = %q, want 0.00", got)
	}
}

// TestEscaping: titles, labels and series names with XML metacharacters
// must be escaped, pinned by the parser.
func TestEscaping(t *testing.T) {
	l := &Line{
		Title:  `a<b & "c">`,
		XLabel: "<x>",
		YLabel: "&y",
		Series: []Series{
			{Name: `s<1> & "q"`, X: []float64{0, 1}, Y: []float64{1, 2}},
			{Name: "s2", X: []float64{0, 1}, Y: []float64{2, 1}},
		},
	}
	svg := renderTo(t, Artifact{"esc", l})
	if strings.Contains(string(svg), `a<b`) {
		t.Error("unescaped title leaked into the document")
	}
}

func TestSlug(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"Source kbps", "source-kbps"},
		{"AS B'D%", "as-b-d"},
		{"continuity", "continuity"},
		{"Top 10 in 2009", "top-10-in-2009"},
		{"--", "chart"},
		{"Time series — scenario \"x\"", "time-series-scenario-x"},
	} {
		if got := Slug(tc.in); got != tc.want {
			t.Errorf("Slug(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestWriteDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "svg")
	paths, err := WriteDir(dir, []Artifact{
		{"line", goldenLine()},
		{"bar", goldenBar()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("wrote %d artifacts, want 2", len(paths))
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		wellFormed(t, b)
	}
}

func TestTicksCoverRange(t *testing.T) {
	if got := niceStep(0, 5); got != 1 {
		t.Errorf("niceStep over an empty span = %v, want 1", got)
	}
	// The step is the smallest 1/2/5×10ⁿ that keeps to maxTicks.
	for _, tc := range []struct{ span, want float64 }{{5, 1}, {10, 2}, {20, 5}, {40, 10}, {0.5, 0.1}} {
		if got := niceStep(tc.span, 5); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("niceStep(%v, 5) = %v, want %v", tc.span, got, tc.want)
		}
	}
	for _, tc := range []struct{ lo, hi float64 }{
		{0, 1}, {0, 237686}, {0.85, 0.99}, {-5, 5}, {0, 0.0001},
	} {
		tv, _ := ticks(tc.lo, tc.hi, 5)
		if len(tv) < 2 {
			t.Errorf("ticks(%v, %v) = %v: fewer than 2 ticks", tc.lo, tc.hi, tv)
		}
		for _, v := range tv {
			if v < tc.lo-1e-9 || v > tc.hi+1e-9 {
				t.Errorf("ticks(%v, %v): tick %v outside range", tc.lo, tc.hi, v)
			}
		}
	}
}
