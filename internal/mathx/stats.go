// Package mathx provides the numerical utilities shared by the power,
// forecasting and allocation packages: descriptive statistics, Pearson
// correlation, piecewise-linear interpolation and a small dense linear
// solver.
//
// Everything here is deliberately dependency-free (stdlib math only) so
// the modelling packages stay self-contained.
package mathx

import (
	"errors"
	"math"
)

// ErrLengthMismatch is returned when paired-sample statistics receive
// slices of different lengths.
var ErrLengthMismatch = errors.New("mathx: input slices have different lengths")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs (divide by n), or 0
// for slices with fewer than one element.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs))
}

// Std returns the population standard deviation of xs.
func Std(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Max returns the maximum of xs. It panics on an empty slice: callers
// in this repository always operate on non-empty utilisation patterns.
func Max(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Pearson returns the Pearson correlation coefficient between x and y.
//
// When either series is constant the correlation is undefined; the
// paper's algorithms treat such a pairing as "no affinity", so Pearson
// returns 0 in that case rather than NaN. It returns
// ErrLengthMismatch when the series lengths differ.
func Pearson(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, ErrLengthMismatch
	}
	if len(x) == 0 {
		return 0, nil
	}
	mx, my := Mean(x), Mean(y)
	var sxy, sxx, syy float64
	for i := range x {
		dx := x[i] - mx
		dy := y[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, nil
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// Clamp limits v to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// MAPE returns the mean absolute percentage error of forecast vs
// actual, skipping points where actual is ~0 (below eps) to avoid
// division blow-ups on idle VM samples.
func MAPE(actual, forecast []float64, eps float64) (float64, error) {
	if len(actual) != len(forecast) {
		return 0, ErrLengthMismatch
	}
	sum, n := 0.0, 0
	for i := range actual {
		if math.Abs(actual[i]) < eps {
			continue
		}
		sum += math.Abs((actual[i] - forecast[i]) / actual[i])
		n++
	}
	if n == 0 {
		return 0, nil
	}
	return 100 * sum / float64(n), nil
}

// RMSE returns the root-mean-square error of forecast vs actual.
func RMSE(actual, forecast []float64) (float64, error) {
	if len(actual) != len(forecast) {
		return 0, ErrLengthMismatch
	}
	if len(actual) == 0 {
		return 0, nil
	}
	ss := 0.0
	for i := range actual {
		d := actual[i] - forecast[i]
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(actual))), nil
}
