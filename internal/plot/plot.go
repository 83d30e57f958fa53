// Package plot renders charts as standalone SVG documents with no
// dependencies beyond the standard library. It exists so every run, sweep
// and study that renders a text table can also persist a plotted artifact —
// the time-series and cross-app comparison figures the paper's results are
// made of — without pulling a plotting stack into the build.
//
// Output is deterministic by construction: identical input renders
// byte-identical SVG (fixed float formatting, no maps on the render path,
// no timestamps), so artifacts are golden-testable and diffable across
// runs. Colors follow a fixed categorical order validated for
// colorblind-safe adjacency; series identity is never carried by color
// alone (legends are always emitted for multi-series charts).
package plot

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"
)

// palette is the categorical series order (validated colorblind-safe
// adjacency on the light surface). Series beyond its length wrap, which is
// acceptable only because chart producers in this module stay well under it.
var palette = [8]string{
	"#2a78d6", // blue
	"#eb6834", // orange
	"#1baf7a", // aqua
	"#eda100", // yellow
	"#e87ba4", // magenta
	"#008300", // green
	"#4a3aa7", // violet
	"#e34948", // red
}

// Chart surface and ink roles (light mode).
const (
	surfaceColor = "#fcfcfb"
	gridColor    = "#e7e6e3"
	axisColor    = "#b5b4b0"
	inkPrimary   = "#0b0b0b"
	inkSecondary = "#52514e"
)

// SeriesColor returns the categorical color for series index i, the same
// fixed assignment the renderer uses (exported for UI code that must agree
// with emitted artifacts).
func SeriesColor(i int) string { return palette[i%len(palette)] }

// Series is one named line of a Line chart. X and Y must have equal length;
// Lo/Hi, when non-empty, must match too and shade a band around the line
// (mean±stderr in sweep artifacts). NaN/Inf points break the line into
// segments instead of corrupting the path.
type Series struct {
	Name   string
	X, Y   []float64
	Lo, Hi []float64
}

// Line is a multi-series line chart over virtual time, with axes, a legend
// and optional band shading: 720×360, X values in seconds, X ticks labelled
// as durations.
type Line struct {
	Title  string
	YLabel string
	Series []Series
}

// BarSeries is one named bar group member of a Bar chart. Vals holds one
// value per group; Errs, when non-empty, draws stderr whiskers; Valid,
// when non-empty, skips unmeasured cells entirely (the bar-chart analogue
// of the tables' dash).
type BarSeries struct {
	Name  string
	Vals  []float64
	Errs  []float64
	Valid []bool
}

// Bar is a grouped bar chart: one cluster per group, one bar per series
// within each cluster, optional stderr whiskers. It is 360 high and as wide
// as its clusters need, 480 at least.
type Bar struct {
	Title  string
	YLabel string
	Groups []string
	Series []BarSeries
}

// Artifact pairs a renderable chart with the file stem it should be written
// under (WriteDir appends ".svg").
type Artifact struct {
	Name  string
	Chart interface{ Render(io.Writer) error }
}

// tickLabel formats a tick value with exactly the decimals its step needs
// ("0.6", not the "0.6000000000000001" float accumulation would print).
// strconv's fixed-decimal formatting is deterministic across platforms.
func tickLabel(v, step float64) string {
	decimals := 0
	if step < 1 {
		decimals = int(math.Ceil(-math.Log10(step) - 1e-9))
	}
	return strconv.FormatFloat(v, 'f', decimals, 64)
}

// coord formats a pixel-space coordinate with fixed precision, normalizing
// the negative-zero strconv would otherwise leak into the byte stream.
func coord(v float64) string {
	s := strconv.FormatFloat(v, 'f', 2, 64)
	if s == "-0.00" {
		return "0.00"
	}
	return s
}

// esc escapes text nodes and attribute values.
var esc = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")

// finite reports whether v is plottable.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// niceStep returns the 1/2/5×10ⁿ step that yields at most maxTicks ticks
// over span.
func niceStep(span float64, maxTicks int) float64 {
	if span <= 0 || maxTicks < 1 {
		return 1
	}
	raw := span / float64(maxTicks)
	mag := math.Pow(10, math.Floor(math.Log10(raw)))
	for _, m := range []float64{1, 2, 5} {
		if mag*m >= raw {
			return mag * m
		}
	}
	return mag * 10
}

// ticks enumerates the nice tick values covering [lo, hi] and reports the
// step they were built from (tickLabel needs it for decimal count).
func ticks(lo, hi float64, maxTicks int) ([]float64, float64) {
	step := niceStep(hi-lo, maxTicks)
	first := math.Ceil(lo/step) * step
	var out []float64
	// The epsilon absorbs float accumulation so hi itself stays included.
	for i := 0; ; i++ {
		v := first + float64(i)*step
		if v > hi+step*1e-9 {
			break
		}
		if v == 0 {
			v = 0 // normalize -0
		}
		out = append(out, v)
	}
	return out, step
}

// timeLabel renders an x tick as a duration ("90s", "5m", "1h10m").
func timeLabel(secs float64) string {
	d := time.Duration(math.Round(secs * float64(time.Second)))
	return d.Truncate(time.Second).String()
}

// scale maps data range [lo,hi] onto pixel range [a,b]; callers widen an
// empty range to one unit.
type scale struct{ lo, hi, a, b float64 }

func (s scale) px(v float64) float64 {
	return s.a + (v-s.lo)/(s.hi-s.lo)*(s.b-s.a)
}

// svgBuilder accumulates the document.
type svgBuilder struct{ b strings.Builder }

func (s *svgBuilder) f(format string, args ...any) {
	fmt.Fprintf(&s.b, format, args...)
}

func (s *svgBuilder) open(w, h int, title string) {
	s.f(`<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d" font-family="sans-serif">`+"\n", w, h, w, h)
	s.f(`<rect width="%d" height="%d" fill="%s"/>`+"\n", w, h, surfaceColor)
	if title != "" {
		s.f(`<text x="16" y="22" font-size="14" fill="%s">%s</text>`+"\n", inkPrimary, esc.Replace(title))
	}
}

func (s *svgBuilder) text(x, y float64, size int, fill, anchor, extra, txt string) {
	s.f(`<text x="%s" y="%s" font-size="%d" fill="%s"`, coord(x), coord(y), size, fill)
	if anchor != "" {
		s.f(` text-anchor="%s"`, anchor)
	}
	if extra != "" {
		s.f(` %s`, extra)
	}
	s.f(`>%s</text>`+"\n", esc.Replace(txt))
}

func (s *svgBuilder) hline(x1, x2, y float64, color string, width float64) {
	s.f(`<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="%s" stroke-width="%s"/>`+"\n",
		coord(x1), coord(y), coord(x2), coord(y), color, coord(width))
}

func (s *svgBuilder) vline(x, y1, y2 float64, color string, width float64) {
	s.f(`<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="%s" stroke-width="%s"/>`+"\n",
		coord(x), coord(y1), coord(x), coord(y2), color, coord(width))
}

// legend draws one horizontal legend row at (x, y); returns nothing —
// layout is a fixed 7px-per-character estimate, deterministic by
// construction. Charts with a single series emit no legend (the title
// names it).
func (s *svgBuilder) legend(x, y float64, names []string) {
	if len(names) < 2 {
		return
	}
	for i, name := range names {
		s.f(`<rect x="%s" y="%s" width="10" height="10" rx="2" fill="%s"/>`+"\n",
			coord(x), coord(y-9), SeriesColor(i))
		s.text(x+14, y, 11, inkSecondary, "", "", name)
		x += 14 + 7*float64(len(name)) + 14
	}
}

// dataRange folds finite values into [lo,hi]; ok reports any were seen.
func dataRange(lo, hi float64, ok bool, vals ...float64) (float64, float64, bool) {
	for _, v := range vals {
		if !finite(v) {
			continue
		}
		if !ok {
			lo, hi, ok = v, v, true
			continue
		}
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return lo, hi, ok
}

// Render writes the chart as a complete SVG document.
func (l *Line) Render(w io.Writer) error {
	const (
		width, height    = 720, 360
		marginL, marginR = 64, 18
		marginT, marginB = 52, 48
	)
	plotL, plotR := float64(marginL), float64(width-marginR)
	plotT, plotB := float64(marginT), float64(height-marginB)

	xlo, xhi, xok := 0.0, 0.0, false
	ylo, yhi, yok := 0.0, 0.0, false
	for _, s := range l.Series {
		xlo, xhi, xok = dataRange(xlo, xhi, xok, s.X...)
		ylo, yhi, yok = dataRange(ylo, yhi, yok, s.Y...)
		ylo, yhi, yok = dataRange(ylo, yhi, yok, s.Lo...)
		ylo, yhi, yok = dataRange(ylo, yhi, yok, s.Hi...)
	}
	// With no finite data each range is [0, 0], which widens to [0, 1]
	// below. Non-negative data anchors at zero — bars and rates read from a
	// zero baseline; a negative range gets a nice floor instead.
	if ylo > 0 {
		ylo = 0
	}
	if yhi == ylo {
		yhi = ylo + 1
	}
	if xhi == xlo {
		xhi = xlo + 1
	}
	xs := scale{xlo, xhi, plotL, plotR}
	ys := scale{ylo, yhi, plotB, plotT}

	var b svgBuilder
	b.open(width, height, l.Title)
	names := make([]string, len(l.Series))
	for i, s := range l.Series {
		names[i] = s.Name
	}
	b.legend(plotL, 40, names)

	// Grid and axes. The grid is recessive; ink lives in the labels.
	yticks, ystep := ticks(ylo, yhi, 5)
	for _, tv := range yticks {
		y := ys.px(tv)
		b.hline(plotL, plotR, y, gridColor, 1)
		b.text(plotL-8, y+3.5, 10, inkSecondary, "end", "", tickLabel(tv, ystep))
	}
	xticks, _ := ticks(xlo, xhi, 7)
	for _, tv := range xticks {
		x := xs.px(tv)
		b.vline(x, plotB, plotB+4, axisColor, 1)
		b.text(x, plotB+16, 10, inkSecondary, "middle", "", timeLabel(tv))
	}
	b.hline(plotL, plotR, plotB, axisColor, 1)
	b.vline(plotL, plotT, plotB, axisColor, 1)
	b.text((plotL+plotR)/2, height-10, 11, inkSecondary, "middle", "", "virtual time")
	if l.YLabel != "" {
		b.text(14, (plotT+plotB)/2, 11, inkSecondary, "middle",
			fmt.Sprintf(`transform="rotate(-90 14 %s)"`, coord((plotT+plotB)/2)), l.YLabel)
	}

	// Bands first (under every line), then lines, in series order.
	for i, s := range l.Series {
		if len(s.Lo) != len(s.X) || len(s.Hi) != len(s.X) {
			continue
		}
		eachSegment(s.X, func(j int) bool { return finite(s.Lo[j]) && finite(s.Hi[j]) && finite(s.X[j]) },
			func(seg []int) {
				if len(seg) < 2 {
					return
				}
				b.f(`<path d="`)
				for k, j := range seg {
					b.f("%s%s,%s", pathCmd(k), coord(xs.px(s.X[j])), coord(ys.px(s.Hi[j])))
				}
				for k := len(seg) - 1; k >= 0; k-- {
					j := seg[k]
					b.f("L%s,%s", coord(xs.px(s.X[j])), coord(ys.px(s.Lo[j])))
				}
				b.f(`Z" fill="%s" fill-opacity="0.15"/>`+"\n", SeriesColor(i))
			})
	}
	for i, s := range l.Series {
		if len(s.Y) != len(s.X) {
			continue
		}
		eachSegment(s.X, func(j int) bool { return finite(s.Y[j]) && finite(s.X[j]) },
			func(seg []int) {
				if len(seg) == 1 {
					j := seg[0]
					b.f(`<circle cx="%s" cy="%s" r="2.5" fill="%s"/>`+"\n",
						coord(xs.px(s.X[j])), coord(ys.px(s.Y[j])), SeriesColor(i))
					return
				}
				b.f(`<path d="`)
				for k, j := range seg {
					b.f("%s%s,%s", pathCmd(k), coord(xs.px(s.X[j])), coord(ys.px(s.Y[j])))
				}
				b.f(`" fill="none" stroke="%s" stroke-width="2" stroke-linejoin="round"/>`+"\n", SeriesColor(i))
			})
	}
	b.f("</svg>\n")
	_, err := io.WriteString(w, b.b.String())
	return err
}

// pathCmd returns the SVG path command for point index k of a segment.
func pathCmd(k int) string {
	if k == 0 {
		return "M"
	}
	return "L"
}

// eachSegment walks indexes of x, grouping consecutive indexes accepted by
// ok into segments and handing each to emit. This is how NaN/Inf points
// split a line instead of poisoning the whole path.
func eachSegment(x []float64, ok func(int) bool, emit func([]int)) {
	var seg []int
	for j := range x {
		if ok(j) {
			seg = append(seg, j)
			continue
		}
		if len(seg) > 0 {
			emit(seg)
			seg = nil
		}
	}
	if len(seg) > 0 {
		emit(seg)
	}
}

// Render writes the chart as a complete SVG document.
func (b *Bar) Render(w io.Writer) error {
	const (
		height           = 360
		marginL, marginR = 64, 18
		marginT          = 52
		barW, barGap     = 18.0, 2.0
		groupGap         = 26.0
	)
	nGroups, nSeries := len(b.Groups), len(b.Series)
	if nSeries == 0 {
		nGroups = 0
	}
	groupW := float64(nSeries)*(barW+barGap) - barGap
	width := max(480, marginL+marginR+int(float64(nGroups)*(groupW+groupGap)+groupGap))
	// Group labels rotate when any would overflow its cluster width.
	rotate := false
	for _, g := range b.Groups {
		if 7*float64(len(g)) > groupW+groupGap {
			rotate = true
		}
	}
	marginB := 44.0
	if rotate {
		longest := 0
		for _, g := range b.Groups {
			if len(g) > longest {
				longest = len(g)
			}
		}
		marginB = 24 + math.Min(110, 4.5*float64(longest))
	}
	plotL, plotR := float64(marginL), float64(width-marginR)
	plotT, plotB := float64(marginT), float64(height)-marginB

	ylo, yhi, yok := 0.0, 0.0, false
	for _, s := range b.Series {
		for g := 0; g < nGroups && g < len(s.Vals); g++ {
			if len(s.Valid) > g && !s.Valid[g] {
				continue
			}
			v, e := s.Vals[g], 0.0
			if len(s.Errs) > g {
				e = s.Errs[g]
			}
			ylo, yhi, yok = dataRange(ylo, yhi, yok, v-e, v+e)
		}
	}
	// Bars always include the zero baseline; with no finite data the range
	// is [0, 0], which widens to [0, 1].
	ylo, yhi = math.Min(ylo, 0), math.Max(yhi, 0)
	if yhi == ylo {
		yhi = ylo + 1
	}
	ys := scale{ylo, yhi, plotB, plotT}

	var sb svgBuilder
	sb.open(width, height, b.Title)
	names := make([]string, nSeries)
	for i, s := range b.Series {
		names[i] = s.Name
	}
	sb.legend(plotL, 40, names)

	yticks, ystep := ticks(ylo, yhi, 5)
	for _, tv := range yticks {
		y := ys.px(tv)
		sb.hline(plotL, plotR, y, gridColor, 1)
		sb.text(plotL-8, y+3.5, 10, inkSecondary, "end", "", tickLabel(tv, ystep))
	}
	if b.YLabel != "" {
		sb.text(14, (plotT+plotB)/2, 11, inkSecondary, "middle",
			fmt.Sprintf(`transform="rotate(-90 14 %s)"`, coord((plotT+plotB)/2)), b.YLabel)
	}

	zero := ys.px(0)
	for g := 0; g < nGroups; g++ {
		gx := plotL + groupGap + float64(g)*(groupW+groupGap)
		for i, s := range b.Series {
			if g >= len(s.Vals) || (len(s.Valid) > g && !s.Valid[g]) {
				continue
			}
			v := s.Vals[g]
			if !finite(v) {
				continue
			}
			x := gx + float64(i)*(barW+barGap)
			y, h := ys.px(v), 0.0
			if v >= 0 {
				h = zero - y
			} else {
				y, h = zero, y-zero
			}
			// Rounded data end anchored to the baseline: round only the
			// outer corners by overshooting the rect into a clip at zero.
			sb.f(`<rect x="%s" y="%s" width="%s" height="%s" rx="2" fill="%s"/>`+"\n",
				coord(x), coord(y), coord(barW), coord(h), SeriesColor(i))
			if len(s.Errs) > g && finite(s.Errs[g]) && s.Errs[g] > 0 {
				cx := x + barW/2
				y1, y2 := ys.px(v-s.Errs[g]), ys.px(v+s.Errs[g])
				sb.vline(cx, y1, y2, inkSecondary, 1)
				sb.hline(cx-3, cx+3, y1, inkSecondary, 1)
				sb.hline(cx-3, cx+3, y2, inkSecondary, 1)
			}
		}
		cx := gx + groupW/2
		if rotate {
			sb.text(cx, plotB+14, 10, inkSecondary, "end",
				fmt.Sprintf(`transform="rotate(-30 %s %s)"`, coord(cx), coord(plotB+14)), b.Groups[g])
		} else {
			sb.text(cx, plotB+16, 10, inkSecondary, "middle", "", b.Groups[g])
		}
	}
	sb.hline(plotL, plotR, zero, axisColor, 1)
	sb.f("</svg>\n")
	_, err := io.WriteString(w, sb.b.String())
	return err
}
