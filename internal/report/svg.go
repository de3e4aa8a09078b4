// SVG rendering: publication-style line charts for the paper's figures,
// generated with nothing but string building (the stdlib has no plotting
// package, but SVG is just XML).

package report

import (
	"fmt"
	"io"
	"math"
	"strings"

	"cmpmem/internal/metrics"
)

// svgPalette holds distinguishable series colors (8 workloads).
var svgPalette = []string{
	"#1f77b4", "#ff7f0e", "#2ca02c", "#d62728",
	"#9467bd", "#8c564b", "#e377c2", "#17becf",
}

// SVGOptions tune the chart.
type SVGOptions struct {
	Title  string
	XLabel string
	YLabel string
	// LogX spaces the x axis logarithmically (cache-size sweeps are
	// powers of two).
	LogX bool
	// Width and Height are the canvas size in pixels (defaults 720x440).
	Width, Height int
}

// SVG renders the series as a line chart. All series must be non-empty;
// they may have different x values.
func SVG(w io.Writer, opt SVGOptions, series []metrics.Series) error {
	if opt.Width == 0 {
		opt.Width = 720
	}
	if opt.Height == 0 {
		opt.Height = 440
	}
	const marginL, marginR, marginT, marginB = 70, 150, 40, 50
	plotW := float64(opt.Width - marginL - marginR)
	plotH := float64(opt.Height - marginT - marginB)

	// Data ranges.
	xmin, xmax := math.Inf(1), math.Inf(-1)
	ymax := 0.0
	for _, s := range series {
		for _, p := range s.Points {
			xmin = math.Min(xmin, p.X)
			xmax = math.Max(xmax, p.X)
			ymax = math.Max(ymax, p.Y)
		}
	}
	if len(series) == 0 || math.IsInf(xmin, 1) {
		_, err := fmt.Fprint(w, `<svg xmlns="http://www.w3.org/2000/svg"/>`)
		return err
	}
	if ymax == 0 {
		ymax = 1
	}
	ymax *= 1.05

	xpos := func(x float64) float64 {
		if xmax == xmin {
			return float64(marginL) + float64(plotW/2)
		}
		if opt.LogX && xmin > 0 {
			return float64(marginL) + plotW*(math.Log2(x)-math.Log2(xmin))/(math.Log2(xmax)-math.Log2(xmin))
		}
		return float64(marginL) + plotW*(x-xmin)/(xmax-xmin)
	}
	ypos := func(y float64) float64 {
		return float64(marginT) + float64(plotH*(1-y/ymax))
	}

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="sans-serif">`,
		opt.Width, opt.Height)
	b.WriteString(`<rect width="100%" height="100%" fill="white"/>`)
	fmt.Fprintf(&b, `<text x="%d" y="24" font-size="16" font-weight="bold">%s</text>`,
		marginL, xmlEscape(opt.Title))

	// Axes.
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`,
		marginL, marginT, marginL, opt.Height-marginB)
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`,
		marginL, opt.Height-marginB, opt.Width-marginR, opt.Height-marginB)
	fmt.Fprintf(&b, `<text x="%d" y="%d" font-size="12" text-anchor="middle">%s</text>`,
		marginL+int(plotW/2), opt.Height-12, xmlEscape(opt.XLabel))
	fmt.Fprintf(&b, `<text x="16" y="%d" font-size="12" transform="rotate(-90 16 %d)" text-anchor="middle">%s</text>`,
		marginT+int(plotH/2), marginT+int(plotH/2), xmlEscape(opt.YLabel))

	// Y grid: 5 ticks.
	for i := 0; i <= 5; i++ {
		y := ymax * float64(i) / 5
		py := ypos(y)
		fmt.Fprintf(&b, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="#ddd"/>`,
			marginL, py, opt.Width-marginR, py)
		fmt.Fprintf(&b, `<text x="%d" y="%.1f" font-size="10" text-anchor="end">%s</text>`,
			marginL-6, py+3, trimFloat(y))
	}
	// X ticks at the first series' points.
	for _, p := range series[0].Points {
		px := xpos(p.X)
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%d" x2="%.1f" y2="%d" stroke="black"/>`,
			px, opt.Height-marginB, px, opt.Height-marginB+4)
		fmt.Fprintf(&b, `<text x="%.1f" y="%d" font-size="10" text-anchor="middle">%s</text>`,
			px, opt.Height-marginB+16, trimNum(p.X))
	}

	// Series.
	for si, s := range series {
		color := svgPalette[si%len(svgPalette)]
		var path strings.Builder
		for i, p := range s.Points {
			cmd := "L"
			if i == 0 {
				cmd = "M"
			}
			fmt.Fprintf(&path, "%s%.1f %.1f ", cmd, xpos(p.X), ypos(p.Y))
		}
		fmt.Fprintf(&b, `<path d="%s" fill="none" stroke="%s" stroke-width="1.8"/>`,
			strings.TrimSpace(path.String()), color)
		for _, p := range s.Points {
			fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="2.6" fill="%s"/>`,
				xpos(p.X), ypos(p.Y), color)
		}
		// Legend entry.
		ly := marginT + 14 + si*18
		fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="%s" stroke-width="2"/>`,
			opt.Width-marginR+10, ly, opt.Width-marginR+34, ly, color)
		fmt.Fprintf(&b, `<text x="%d" y="%d" font-size="11">%s</text>`,
			opt.Width-marginR+40, ly+4, xmlEscape(s.Name))
	}
	b.WriteString(`</svg>`)
	_, err := io.WriteString(w, b.String())
	return err
}

// trimFloat renders an axis value compactly.
func trimFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 100:
		return fmt.Sprintf("%.0f", v)
	case v >= 1:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// xmlEscape escapes text content for SVG.
func xmlEscape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
