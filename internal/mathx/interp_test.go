package mathx

import (
	"testing"
	"testing/quick"
)

func TestPiecewiseLinearInterpolation(t *testing.T) {
	p := MustPiecewiseLinear([]float64{0, 1, 2}, []float64{0, 10, 40})
	cases := []struct{ x, want float64 }{
		{0, 0}, {0.5, 5}, {1, 10}, {1.5, 25}, {2, 40},
	}
	for _, c := range cases {
		if got := p.At(c.x); !almost(got, c.want, 1e-12) {
			t.Errorf("At(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestPiecewiseLinearExtrapolation(t *testing.T) {
	p := MustPiecewiseLinear([]float64{1, 2}, []float64{10, 20})
	if got := p.At(0); !almost(got, 0, 1e-12) {
		t.Errorf("At(0) = %v, want 0 (left extrapolation)", got)
	}
	if got := p.At(3); !almost(got, 30, 1e-12) {
		t.Errorf("At(3) = %v, want 30 (right extrapolation)", got)
	}
}

func TestPiecewiseLinearSortsInput(t *testing.T) {
	p := MustPiecewiseLinear([]float64{2, 0, 1}, []float64{40, 0, 10})
	if got := p.At(0.5); !almost(got, 5, 1e-12) {
		t.Errorf("At(0.5) = %v, want 5 after sorting", got)
	}
}

func TestPiecewiseLinearErrors(t *testing.T) {
	if _, err := NewPiecewiseLinear([]float64{1}, []float64{1}); err != ErrBadTable {
		t.Errorf("single point err = %v, want ErrBadTable", err)
	}
	if _, err := NewPiecewiseLinear([]float64{1, 1}, []float64{1, 2}); err != ErrBadTable {
		t.Errorf("duplicate x err = %v, want ErrBadTable", err)
	}
	if _, err := NewPiecewiseLinear([]float64{1, 2}, []float64{1}); err != ErrLengthMismatch {
		t.Errorf("length mismatch err = %v, want ErrLengthMismatch", err)
	}
}

func TestPiecewiseLinearHitsKnotsProperty(t *testing.T) {
	// The interpolant must pass exactly through its sample points.
	prop := func(seed int64) bool {
		rng := newTestRNG(seed)
		n := 2 + int(uint(seed)%8)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i) + rng.next()/200 // strictly increasing
			ys[i] = rng.next()
		}
		p, err := NewPiecewiseLinear(xs, ys)
		if err != nil {
			return false
		}
		for i := range xs {
			if !almost(p.At(xs[i]), ys[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestPiecewiseLinearMonotoneProperty(t *testing.T) {
	// With increasing y-knots the interpolant is monotone within the domain.
	p := MustPiecewiseLinear([]float64{0.1, 0.5, 1, 2, 3.1}, []float64{0.45, 0.5, 0.6, 0.8, 1.3})
	prev := p.At(0.1)
	for x := 0.1; x <= 3.1; x += 0.01 {
		cur := p.At(x)
		if cur < prev-1e-12 {
			t.Fatalf("interpolant decreased at x=%v: %v -> %v", x, prev, cur)
		}
		prev = cur
	}
}
