package mathx

import (
	"errors"
	"math"
)

// ErrSingular is returned when a linear system has no unique solution.
var ErrSingular = errors.New("mathx: singular or ill-conditioned matrix")

// SolveLinear solves the dense system A·x = b using Gaussian
// elimination with partial pivoting. A is given row-major as a slice
// of rows; it is not modified. YuleWalker and LeastSquares use this
// for systems that are tiny (order <= ~30), so an O(n^3) dense solve
// is the right tool.
func SolveLinear(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	if n == 0 || len(b) != n {
		return nil, ErrLengthMismatch
	}
	// Work on a copy in augmented form.
	m := make([]float64, n*(n+1))
	for i := range a {
		if len(a[i]) != n {
			return nil, ErrLengthMismatch
		}
		copy(m[i*(n+1):], a[i])
		m[i*(n+1)+n] = b[i]
	}
	x := make([]float64, n)
	if err := SolveAugmented(m, x); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveAugmented is SolveLinear without allocation, for callers that
// solve many small systems (the ARIMA fit): m holds the augmented
// system [A | b] row-major (n rows of n+1 values, n = len(x)) and is
// overwritten by the elimination; the solution is written to x.
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
				row[c] -= f * pivRow[c]
			}
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		row := m[i*w : (i+1)*w]
		s := row[n]
		for c := i + 1; c < n; c++ {
			s -= row[c] * x[c]
		}
		x[i] = s / row[i]
	}
	return nil
}

// Autocovariance returns the sample autocovariances of xs at lags
// 0..maxLag (biased estimator, divide by n), as needed by Yule-Walker.
func Autocovariance(xs []float64, maxLag int) []float64 {
	n := len(xs)
	out := make([]float64, maxLag+1)
	if n == 0 {
		return out
	}
	m := Mean(xs)
	for lag := 0; lag <= maxLag && lag < n; lag++ {
		s := 0.0
		for i := 0; i+lag < n; i++ {
			s += (xs[i] - m) * (xs[i+lag] - m)
		}
		out[lag] = s / float64(n)
	}
	return out
}

// YuleWalker fits an AR(p) model to xs and returns the AR coefficients
// phi[0..p-1] (so that x_t ~ sum_i phi[i]*x_{t-1-i} + e_t, in deviations
// from the mean) and the innovation variance estimate.
func YuleWalker(xs []float64, p int) (phi []float64, sigma2 float64, err error) {
	if p <= 0 {
		return nil, 0, errors.New("mathx: YuleWalker order must be positive")
	}
	if len(xs) <= p {
		return nil, 0, errors.New("mathx: YuleWalker needs more samples than the AR order")
	}
	gamma := Autocovariance(xs, p)
	// A (numerically) constant series has no autocovariance structure:
	// AR coefficients are all zero and the innovations have zero
	// variance. Compare against the scale of the data to absorb float
	// round-off from the mean subtraction.
	scale := 1.0 + math.Abs(Mean(xs))
	if gamma[0] <= 1e-12*scale*scale {
		return make([]float64, p), 0, nil
	}
	// Toeplitz system R·phi = r with R[i][j] = gamma[|i-j|].
	r := make([][]float64, p)
	rhs := make([]float64, p)
	for i := 0; i < p; i++ {
		r[i] = make([]float64, p)
		for j := 0; j < p; j++ {
			r[i][j] = gamma[abs(i-j)]
		}
		rhs[i] = gamma[i+1]
	}
	phi, err = SolveLinear(r, rhs)
	if err != nil {
		return nil, 0, err
	}
	sigma2 = gamma[0]
	for i := 0; i < p; i++ {
		sigma2 -= phi[i] * gamma[i+1]
	}
	if sigma2 < 0 {
		sigma2 = 0
	}
	return phi, sigma2, nil
}

// LeastSquares solves the overdetermined system X·beta ~= y in the
// least-squares sense via the normal equations (XᵀX)·beta = Xᵀy.
// X is row-major with one observation per row. The regressions in this
// repository are small and well-scaled, so normal equations suffice.
func LeastSquares(x [][]float64, y []float64) ([]float64, error) {
	nObs := len(x)
	if nObs == 0 || len(y) != nObs {
		return nil, ErrLengthMismatch
	}
	nVar := len(x[0])
	xtx := make([][]float64, nVar)
	xty := make([]float64, nVar)
	for i := range xtx {
		xtx[i] = make([]float64, nVar)
	}
	for r := 0; r < nObs; r++ {
		if len(x[r]) != nVar {
			return nil, ErrLengthMismatch
		}
		for i := 0; i < nVar; i++ {
			xty[i] += x[r][i] * y[r]
			for j := i; j < nVar; j++ {
				xtx[i][j] += x[r][i] * x[r][j]
			}
		}
	}
	for i := 0; i < nVar; i++ {
		for j := 0; j < i; j++ {
			xtx[i][j] = xtx[j][i]
		}
		// Tiny ridge term keeps near-collinear regressors (flat VM
		// traces) solvable without visibly biasing the fit.
		xtx[i][i] += 1e-9
	}
	return SolveLinear(xtx, xty)
}

func abs(i int) int {
	if i < 0 {
		return -i
	}
	return i
}
