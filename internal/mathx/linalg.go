package mathx

import (
	"errors"
	"math"
)

// ErrSingular is returned when a linear system has no unique solution.
var ErrSingular = errors.New("mathx: singular or ill-conditioned matrix")

// SolveAugmented solves the dense system A·x = b by Gaussian
// elimination with partial pivoting, without allocating, for callers
// that solve many small systems (the ARIMA fit): m holds the augmented
// system [A | b] row-major (n rows of n+1 values, n = len(x)) and is
// overwritten by the elimination; the solution is written to x. Each
// product is rounded before it is subtracted (float64(a*b)), so
// compilers that fuse multiply-adds give the same bits as amd64.
func SolveAugmented(m, x []float64) error {
	n := len(x)
	w := n + 1
	if n == 0 || len(m) != n*w {
		return ErrLengthMismatch
	}
	for col := 0; col < n; col++ {
		// Partial pivot.
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r*w+col]) > math.Abs(m[piv*w+col]) {
				piv = r
			}
		}
		if math.Abs(m[piv*w+col]) < 1e-12 {
			return ErrSingular
		}
		if piv != col {
			pr, cr := m[piv*w:(piv+1)*w], m[col*w:(col+1)*w]
			for c := range cr {
				pr[c], cr[c] = cr[c], pr[c]
			}
		}
		// Eliminate below.
		pivRow := m[col*w : (col+1)*w]
		for r := col + 1; r < n; r++ {
			row := m[r*w : (r+1)*w]
			f := row[col] / pivRow[col]
			if f == 0 {
				continue
			}
			for c := col; c <= n; c++ {
				row[c] -= float64(f * pivRow[c])
			}
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		row := m[i*w : (i+1)*w]
		s := row[n]
		for c := i + 1; c < n; c++ {
			s -= float64(row[c] * x[c])
		}
		x[i] = s / row[i]
	}
	return nil
}
