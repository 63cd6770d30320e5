package main

import (
	"math"
	"testing"
	"time"
)

// The tail rule: report the highest percentile that has at least ten
// samples beyond it, and no tail at all below that.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{10000, 99.9, true},
		{9999, 99, true},
		{1000, 99, true},
		{999, 95, true},
		{320, 95, true},
		{200, 95, true},
		{199, 90, true},
		{100, 90, true},
		{99, 75, true},
		{44, 75, true},
		{40, 75, true},
		{39, 0, false},
		{0, 0, false},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && float64(c.n)*(100-got)/100 < minBeyond-1e-9 {
			t.Errorf("tailPercentile(%d) = p%v leaves fewer than %d samples beyond it", c.n, got, minBeyond)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // reversed: percentile must sort
	}
	for p, want := range map[float64]float64{50: 50, 90: 90, 99: 99, 100: 100, 0: 1} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", p, got, want)
		}
	}
	if got := percentileName(99.9); got != "p99.9" {
		t.Errorf("percentileName(99.9) = %q", got)
	}
}

// A time measured while the reference load took k times its nominal
// time reads 1/k of its wall time; at nominal speed it reads unchanged.
func TestScaledMs(t *testing.T) {
	for _, c := range []struct {
		d, ref time.Duration
		want   float64
	}{
		{2 * time.Second, refNominal, 2000},
		{2 * time.Second, 2 * refNominal, 1000},
		{300 * time.Millisecond, refNominal * 3 / 4, 400},
	} {
		if got := scaledMs(c.d, c.ref); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("scaledMs(%v, %v) = %v, want %v", c.d, c.ref, got, c.want)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4),
// which defines the stability check's spread.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 3, 1, 7, 2}, 1.5, 8.5},
		{[]float64{1, 2}, 0.75, 2.25},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}
