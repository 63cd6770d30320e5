package mathx

import (
	"errors"
	"sort"
)

// ErrBadTable is returned when a piecewise-linear table is malformed.
var ErrBadTable = errors.New("mathx: interpolation table needs >= 2 strictly increasing x points")

// PiecewiseLinear interpolates linearly between (x, y) sample points
// and extrapolates linearly beyond the first/last segment. The
// technology models use it for voltage/frequency curves and measured
// power templates.
type PiecewiseLinear struct {
	xs, ys []float64
}

// NewPiecewiseLinear builds an interpolator from sample points. The
// points are sorted by x; duplicate x values are rejected.
func NewPiecewiseLinear(xs, ys []float64) (*PiecewiseLinear, error) {
	if len(xs) != len(ys) {
		return nil, ErrLengthMismatch
	}
	if len(xs) < 2 {
		return nil, ErrBadTable
	}
	type pt struct{ x, y float64 }
	pts := make([]pt, len(xs))
	for i := range xs {
		pts[i] = pt{xs[i], ys[i]}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].x < pts[j].x })
	sx := make([]float64, len(pts))
	sy := make([]float64, len(pts))
	for i, p := range pts {
		if i > 0 && p.x == pts[i-1].x {
			return nil, ErrBadTable
		}
		sx[i], sy[i] = p.x, p.y
	}
	return &PiecewiseLinear{xs: sx, ys: sy}, nil
}

// MustPiecewiseLinear is NewPiecewiseLinear that panics on error. It is
// meant for package-level tables built from literal data.
func MustPiecewiseLinear(xs, ys []float64) *PiecewiseLinear {
	p, err := NewPiecewiseLinear(xs, ys)
	if err != nil {
		panic(err)
	}
	return p
}

// At evaluates the interpolant at x, extrapolating linearly outside
// the table range.
func (p *PiecewiseLinear) At(x float64) float64 {
	n := len(p.xs)
	// Locate the segment: the greatest i with xs[i] <= x, clamped so
	// that extrapolation uses the first/last segment's slope.
	i := sort.SearchFloat64s(p.xs, x)
	switch {
	case i <= 0:
		i = 1
	case i >= n:
		i = n - 1
	}
	x0, x1 := p.xs[i-1], p.xs[i]
	y0, y1 := p.ys[i-1], p.ys[i]
	t := (x - x0) / (x1 - x0)
	return y0 + t*(y1-y0)
}
