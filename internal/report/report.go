// Package report renders compact ASCII charts for the command-line
// tools: sparklines for per-slot series and horizontal bar charts for
// policy comparisons. Terminal-only output keeps the repository free
// of plotting dependencies while still making the figure shapes
// visible at a glance.
package report

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// sparks are the eight block characters of a sparkline.
var sparks = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders xs as a one-line unicode sparkline scaled to the
// series' own min/max. An empty series renders as an empty string.
func Sparkline(xs []float64) string {
	if len(xs) == 0 {
		return ""
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	var b strings.Builder
	span := hi - lo
	for _, x := range xs {
		idx := 0
		if span > 0 {
			idx = int((x - lo) / span * float64(len(sparks)-1))
		}
		if idx < 0 {
			idx = 0
		}
		if idx >= len(sparks) {
			idx = len(sparks) - 1
		}
		b.WriteRune(sparks[idx])
	}
	return b.String()
}

// Downsample reduces xs to at most n points by averaging buckets —
// keeps sparklines terminal-width friendly for week-long series.
func Downsample(xs []float64, n int) []float64 {
	if n <= 0 || len(xs) <= n {
		return xs
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		lo := i * len(xs) / n
		hi := (i + 1) * len(xs) / n
		if hi <= lo {
			hi = lo + 1
		}
		sum := 0.0
		for _, x := range xs[lo:hi] {
			sum += x
		}
		out[i] = sum / float64(hi-lo)
	}
	return out
}

// Bar is one row of a bar chart.
type Bar struct {
	Label string
	Value float64
}

// BarChart renders horizontal bars scaled to the maximum value, with
// the numeric value appended. width is the maximum bar width in runes.
func BarChart(w io.Writer, bars []Bar, width int, unit string) error {
	if width <= 0 {
		width = 40
	}
	maxV := 0.0
	maxLabel := 0
	for _, b := range bars {
		maxV = math.Max(maxV, b.Value)
		if len(b.Label) > maxLabel {
			maxLabel = len(b.Label)
		}
	}
	for _, b := range bars {
		n := 0
		if maxV > 0 {
			n = int(b.Value / maxV * float64(width))
		}
		if n < 0 {
			n = 0
		}
		if _, err := fmt.Fprintf(w, "%-*s %s %.1f%s\n",
			maxLabel, b.Label, strings.Repeat("█", n), b.Value, unit); err != nil {
			return err
		}
	}
	return nil
}

// Series renders a labelled sparkline with min/max annotations.
func Series(w io.Writer, label string, xs []float64, maxWidth int) error {
	ds := Downsample(xs, maxWidth)
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	if len(xs) == 0 {
		lo, hi = 0, 0
	}
	_, err := fmt.Fprintf(w, "%-10s %s  [%.1f .. %.1f]\n", label, Sparkline(ds), lo, hi)
	return err
}
