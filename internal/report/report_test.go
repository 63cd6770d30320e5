package report

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
	"unicode/utf8"
)

func TestSparklineBasics(t *testing.T) {
	if s := Sparkline(nil); s != "" {
		t.Errorf("empty series = %q, want empty", s)
	}
	s := Sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7})
	if utf8.RuneCountInString(s) != 8 {
		t.Errorf("rune count = %d, want 8", utf8.RuneCountInString(s))
	}
	// Monotone input -> monotone glyph levels.
	prev := -1
	for _, r := range s {
		level := strings.IndexRune("▁▂▃▄▅▆▇█", r)
		if level < prev {
			t.Fatalf("sparkline not monotone: %q", s)
		}
		prev = level
	}
	// Constant series renders at the lowest level.
	c := Sparkline([]float64{5, 5, 5})
	for _, r := range c {
		if r != '▁' {
			t.Errorf("constant series glyph = %q, want ▁", string(r))
		}
	}
}

func TestSparklineBoundsProperty(t *testing.T) {
	prop := func(seed int64) bool {
		state := uint64(seed) | 1
		xs := make([]float64, 1+int(uint(seed)%50))
		for i := range xs {
			state ^= state << 13
			state ^= state >> 7
			state ^= state << 17
			xs[i] = float64(state%10000)/100 - 50
		}
		s := Sparkline(xs)
		return utf8.RuneCountInString(s) == len(xs)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestSparklineInts(t *testing.T) {
	if s := SparklineInts([]int{1, 2, 3}); utf8.RuneCountInString(s) != 3 {
		t.Errorf("int sparkline length wrong: %q", s)
	}
}

func TestDownsample(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	ds := Downsample(xs, 10)
	if len(ds) != 10 {
		t.Fatalf("len = %d, want 10", len(ds))
	}
	// Bucket means preserve monotonicity and the overall mean.
	for i := 1; i < len(ds); i++ {
		if ds[i] <= ds[i-1] {
			t.Fatal("downsample broke monotonicity")
		}
	}
	// No-op cases.
	if got := Downsample(xs, 200); len(got) != 100 {
		t.Error("downsample should be a no-op when n >= len")
	}
	if got := Downsample(xs, 0); len(got) != 100 {
		t.Error("n=0 should be a no-op")
	}
}

func TestBarChart(t *testing.T) {
	var buf bytes.Buffer
	bars := []Bar{
		{"EPACT", 1594.8},
		{"COAT", 2573.5},
		{"COAT-OPT", 1579.0},
	}
	if err := BarChart(&buf, bars, 30, " MJ"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d, want 3", len(lines))
	}
	// COAT has the max value: its bar must be the longest.
	coatBars := strings.Count(lines[1], "█")
	epactBars := strings.Count(lines[0], "█")
	if coatBars <= epactBars {
		t.Errorf("COAT bar (%d) not longer than EPACT (%d)", coatBars, epactBars)
	}
	if coatBars != 30 {
		t.Errorf("max bar = %d, want full width 30", coatBars)
	}
}

func TestSeries(t *testing.T) {
	var buf bytes.Buffer
	if err := Series(&buf, "energy", []float64{1, 5, 3, 8, 2}, 40); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "energy") || !strings.Contains(out, "[1.0 .. 8.0]") {
		t.Errorf("series output missing parts: %q", out)
	}
	// Empty series should not panic.
	buf.Reset()
	if err := Series(&buf, "empty", nil, 40); err != nil {
		t.Fatal(err)
	}
}

// SparklineInts is Sparkline for integer series.
func SparklineInts(xs []int) string {
	f := make([]float64, len(xs))
	for i, x := range xs {
		f[i] = float64(x)
	}
	return Sparkline(f)
}
