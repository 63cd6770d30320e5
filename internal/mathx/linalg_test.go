package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSolveLinearKnownSystem(t *testing.T) {
	a := [][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	}
	b := []float64{8, -11, -3}
	x, err := SolveLinear(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if !almost(x[i], want[i], 1e-9) {
			t.Errorf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestSolveLinearSingular(t *testing.T) {
	a := [][]float64{
		{1, 2},
		{2, 4},
	}
	if _, err := SolveLinear(a, []float64{1, 2}); err != ErrSingular {
		t.Errorf("err = %v, want ErrSingular", err)
	}
}

func TestSolveLinearShapeErrors(t *testing.T) {
	if _, err := SolveLinear(nil, nil); err != ErrLengthMismatch {
		t.Errorf("empty err = %v, want ErrLengthMismatch", err)
	}
	if _, err := SolveLinear([][]float64{{1, 2}}, []float64{1}); err != ErrLengthMismatch {
		t.Errorf("ragged err = %v, want ErrLengthMismatch", err)
	}
	if err := SolveAugmented(make([]float64, 5), make([]float64, 2)); err != ErrLengthMismatch {
		t.Errorf("augmented shape err = %v, want ErrLengthMismatch", err)
	}
}

func TestSolveLinearRoundTripProperty(t *testing.T) {
	// For random well-conditioned systems, A·x == b after solving.
	prop := func(seed int64) bool {
		rng := newTestRNG(seed)
		n := 2 + int(uint(seed)%5)
		a := make([][]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = make([]float64, n)
			for j := range a[i] {
				a[i][j] = rng.next() - 50
			}
			a[i][i] += 500 // diagonal dominance => well-conditioned
			b[i] = rng.next() - 50
		}
		x, err := SolveLinear(a, b)
		if err != nil {
			return false
		}
		for i := range a {
			s := 0.0
			for j := range a[i] {
				s += a[i][j] * x[j]
			}
			if !almost(s, b[i], 1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestAutocovarianceLagZeroIsVariance(t *testing.T) {
	xs := []float64{1, 3, 2, 5, 4, 6, 2, 4}
	g := Autocovariance(xs, 3)
	if !almost(g[0], Variance(xs), 1e-12) {
		t.Errorf("gamma[0] = %v, want Variance = %v", g[0], Variance(xs))
	}
	if len(g) != 4 {
		t.Errorf("len = %d, want 4", len(g))
	}
}

func TestYuleWalkerRecoversAR1(t *testing.T) {
	// Simulate x_t = 0.7 x_{t-1} + e_t and check the fitted phi.
	rng := newTestRNG(42)
	const n = 20000
	xs := make([]float64, n)
	for i := 1; i < n; i++ {
		e := (rng.next() - 50) / 50 // approx zero-mean noise
		xs[i] = 0.7*xs[i-1] + e
	}
	phi, sigma2, err := YuleWalker(xs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(phi[0]-0.7) > 0.05 {
		t.Errorf("phi = %v, want ~0.7", phi[0])
	}
	if sigma2 <= 0 {
		t.Errorf("sigma2 = %v, want > 0", sigma2)
	}
}

func TestYuleWalkerConstantSeries(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = 3.14
	}
	phi, sigma2, err := YuleWalker(xs, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range phi {
		if p != 0 {
			t.Errorf("phi[%d] = %v, want 0 for constant series", i, p)
		}
	}
	if sigma2 != 0 {
		t.Errorf("sigma2 = %v, want 0", sigma2)
	}
}

func TestYuleWalkerErrors(t *testing.T) {
	if _, _, err := YuleWalker([]float64{1, 2, 3}, 0); err == nil {
		t.Error("order 0 should error")
	}
	if _, _, err := YuleWalker([]float64{1, 2}, 5); err == nil {
		t.Error("too few samples should error")
	}
}

func TestLeastSquaresExactFit(t *testing.T) {
	// y = 2*a + 3*b fitted exactly.
	x := [][]float64{
		{1, 0},
		{0, 1},
		{1, 1},
		{2, 1},
	}
	y := []float64{2, 3, 5, 7}
	beta, err := LeastSquares(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(beta[0], 2, 1e-6) || !almost(beta[1], 3, 1e-6) {
		t.Errorf("beta = %v, want [2 3]", beta)
	}
}

func TestLeastSquaresOverdetermined(t *testing.T) {
	// Noisy line y = 5x; slope estimate should be near 5.
	rng := newTestRNG(7)
	var x [][]float64
	var y []float64
	for i := 0; i < 200; i++ {
		v := rng.next()
		x = append(x, []float64{v})
		y = append(y, 5*v+(rng.next()-50)/100)
	}
	beta, err := LeastSquares(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(beta[0]-5) > 0.05 {
		t.Errorf("slope = %v, want ~5", beta[0])
	}
}

func TestLeastSquaresShapeErrors(t *testing.T) {
	if _, err := LeastSquares(nil, nil); err != ErrLengthMismatch {
		t.Errorf("empty err = %v, want ErrLengthMismatch", err)
	}
	if _, err := LeastSquares([][]float64{{1}, {1, 2}}, []float64{1, 2}); err != ErrLengthMismatch {
		t.Errorf("ragged err = %v, want ErrLengthMismatch", err)
	}
}
