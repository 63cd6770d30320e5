package forecast

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mathx"
	"repro/internal/trace"
)

// This file keeps a verbatim copy of the straightforward ARIMA fit
// (copied history, one materialised regression row per observation,
// refYuleWalker / refLeastSquares over a dense solve, forecast
// recursion over copies of the whole series) and tests that the fused
// kernel in arima.go returns bit-identical forecasts and the same
// errors. If a future change to arima.go alters any forecast bit,
// these tests fail before the golden figures do. Its multiply-adds
// round the product explicitly, float64(a*b), as arima.go's do, so
// that it keeps the same meaning where compilers fuse `x*y + z`.

// refForecast returns the forecasts and the fitted model's in-sample
// innovations.
func refForecast(cfg Config, history []float64, horizon int) (pred, resid []float64, err error) {
	if horizon <= 0 {
		return nil, nil, errBadHorizon
	}
	needed := cfg.SeasonalPeriod + cfg.D + cfg.P + cfg.Q + 16
	if len(history) < needed {
		return nil, nil, fmt.Errorf("%w: have %d, need >= %d", errTooShort, len(history), needed)
	}

	// 1) Seasonal differencing.
	work := append([]float64(nil), history...)
	var seasonalBase []float64
	if cfg.SeasonalPeriod > 0 {
		seasonalBase = work
		work = refSeasonalDiff(work, cfg.SeasonalPeriod)
	}

	// 2) Ordinary differencing, keeping the tails for inversion.
	tails := make([][]float64, 0, cfg.D)
	for i := 0; i < cfg.D; i++ {
		tails = append(tails, append([]float64(nil), work...))
		work = refDiff(work)
	}

	// 3) Fit ARMA(p, q) on the stationary series.
	model, err := refFitARMA(work, cfg.P, cfg.Q, cfg.LongAROrder)
	if err != nil {
		return nil, nil, err
	}

	// 4) Iterate the recursion over the horizon with zero future
	// innovations.
	pred = model.forecast(work, horizon)

	// 5) Invert ordinary differencing (integrate).
	for i := cfg.D - 1; i >= 0; i-- {
		base := tails[i]
		level := base[len(base)-1]
		for j := range pred {
			level += pred[j]
			pred[j] = level
		}
	}

	// 6) Invert seasonal differencing.
	if cfg.SeasonalPeriod > 0 {
		s := cfg.SeasonalPeriod
		n := len(seasonalBase)
		for j := range pred {
			idx := n + j - s
			var prevSeason float64
			if idx >= n {
				prevSeason = pred[idx-n]
			} else {
				prevSeason = seasonalBase[idx]
			}
			pred[j] += prevSeason
		}
	}

	// 7) Clamp to the valid range.
	if cfg.ClampMax > cfg.ClampMin {
		for j := range pred {
			pred[j] = mathx.Clamp(pred[j], cfg.ClampMin, cfg.ClampMax)
		}
	}
	return pred, model.resid, nil
}

// refARMA holds fitted ARMA coefficients (on a mean-removed series).
type refARMA struct {
	phi   []float64
	theta []float64
	mean  float64
	resid []float64
}

// refFitARMA estimates ARMA(p,q) by Hannan–Rissanen.
func refFitARMA(series []float64, p, q, longAR int) (*refARMA, error) {
	if p < 0 || q < 0 {
		return nil, errNegativeOrder
	}
	mean := mathx.Mean(series)
	x := make([]float64, len(series))
	for i, v := range series {
		x[i] = v - mean
	}

	// Degenerate series (constant): forecast the mean.
	if mathx.Std(x) < 1e-9 {
		return &refARMA{phi: make([]float64, p), theta: make([]float64, q), mean: mean,
			resid: make([]float64, len(x))}, nil
	}

	// Pure AR: Yule-Walker directly.
	if q == 0 {
		if p == 0 {
			return &refARMA{mean: mean, resid: append([]float64(nil), x...)}, nil
		}
		phi, _, err := refYuleWalker(x, p)
		if err != nil {
			return nil, err
		}
		m := &refARMA{phi: phi, theta: nil, mean: mean}
		m.resid = m.innovations(x)
		return m, nil
	}

	// Stage 1: long AR to estimate innovations.
	m1 := longAR
	if m1 <= 0 {
		m1 = 2 * (p + q)
		if m1 < 20 {
			m1 = 20
		}
	}
	if len(x) <= m1+p+q+1 {
		return nil, errTooShort
	}
	longPhi, _, err := refYuleWalker(x, m1)
	if err != nil {
		return nil, err
	}
	eps := make([]float64, len(x))
	for t := m1; t < len(x); t++ {
		pred := 0.0
		for i := 0; i < m1; i++ {
			pred += float64(longPhi[i] * x[t-1-i])
		}
		eps[t] = x[t] - pred
	}

	// Stage 2: regress x_t on lagged x and lagged innovations.
	start := m1 + max(p, q)
	var rows [][]float64
	var ys []float64
	for t := start; t < len(x); t++ {
		row := make([]float64, p+q)
		for i := 0; i < p; i++ {
			row[i] = x[t-1-i]
		}
		for j := 0; j < q; j++ {
			row[p+j] = eps[t-1-j]
		}
		rows = append(rows, row)
		ys = append(ys, x[t])
	}
	beta, err := refLeastSquares(rows, ys)
	if err != nil {
		return nil, err
	}
	m := &refARMA{phi: beta[:p], theta: beta[p:], mean: mean}
	m.resid = m.innovations(x)
	return m, nil
}

// innovations recomputes in-sample one-step residuals under the model.
func (m *refARMA) innovations(x []float64) []float64 {
	p, q := len(m.phi), len(m.theta)
	eps := make([]float64, len(x))
	for t := 0; t < len(x); t++ {
		pred := 0.0
		for i := 0; i < p && t-1-i >= 0; i++ {
			pred += float64(m.phi[i] * x[t-1-i])
		}
		for j := 0; j < q && t-1-j >= 0; j++ {
			pred += float64(m.theta[j] * eps[t-1-j])
		}
		eps[t] = x[t] - pred
	}
	return eps
}

// forecast iterates the ARMA recursion over the horizon with zero
// future innovations.
func (m *refARMA) forecast(x []float64, horizon int) []float64 {
	p, q := len(m.phi), len(m.theta)
	xs := make([]float64, 0, len(x)+horizon)
	for _, v := range x {
		xs = append(xs, v-m.mean)
	}
	eps := append([]float64(nil), m.resid...)
	out := make([]float64, 0, horizon)
	for h := 0; h < horizon; h++ {
		t := len(xs)
		pred := 0.0
		for i := 0; i < p && t-1-i >= 0; i++ {
			pred += float64(m.phi[i] * xs[t-1-i])
		}
		for j := 0; j < q && t-1-j >= 0; j++ {
			pred += float64(m.theta[j] * eps[t-1-j])
		}
		if math.IsNaN(pred) || math.IsInf(pred, 0) {
			pred = 0
		}
		xs = append(xs, pred)
		eps = append(eps, 0)
		out = append(out, pred+m.mean)
	}
	return out
}

// refSeasonalDiff returns x[t] - x[t-s] for t >= s.
func refSeasonalDiff(x []float64, s int) []float64 {
	if len(x) <= s {
		return nil
	}
	out := make([]float64, len(x)-s)
	for t := s; t < len(x); t++ {
		out[t-s] = x[t] - x[t-s]
	}
	return out
}

// refDiff returns the first difference of x.
func refDiff(x []float64) []float64 {
	if len(x) < 2 {
		return nil
	}
	out := make([]float64, len(x)-1)
	for t := 1; t < len(x); t++ {
		out[t-1] = x[t] - x[t-1]
	}
	return out
}

// checkMatchesRef fails t unless the fused kernel and the reference
// agree bit for bit on (cfg, history, horizon), errors included, and
// on the innovation scale of the fit.
func checkMatchesRef(t *testing.T, label string, cfg Config, history []float64, horizon int) {
	t.Helper()
	a := &ARIMA{Cfg: cfg}
	got := make([]float64, horizon)
	gotErr := a.Forecast(got, history)
	want, resid, wantErr := refForecast(cfg, history, horizon)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s %s: err = %v, reference err = %v", label, a.Name(), gotErr, wantErr)
	}
	if wantErr != nil {
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s %s: err %q, reference err %q", label, a.Name(), gotErr, wantErr)
		}
		for _, sentinel := range []error{errBadHorizon, errTooShort, errNegativeOrder, mathx.ErrSingular} {
			if errors.Is(gotErr, sentinel) != errors.Is(wantErr, sentinel) {
				t.Fatalf("%s %s: errors.Is(%v) differs: %v vs reference %v", label, a.Name(), sentinel, gotErr, wantErr)
			}
		}
		return
	}
	if len(got) != len(want) {
		t.Fatalf("%s %s: %d forecasts, reference %d", label, a.Name(), len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s %s: forecast[%d] = %v (%#x), reference %v (%#x)", label, a.Name(),
				i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	var s scratch
	if err := a.forecast(&s, make([]float64, horizon), history); err != nil {
		t.Fatalf("%s %s: refit: %v", label, a.Name(), err)
	}
	if got, sd := mathx.Std(s.eps), mathx.Std(resid); math.Float64bits(got) != math.Float64bits(sd) {
		t.Fatalf("%s %s: innovation sd = %v, reference %v", label, a.Name(), got, sd)
	}
}

// refConfigs are the model shapes the kernel must reproduce: the
// data-center default, pure AR, pure MA, an integrated model, a
// non-seasonal default, a short seasonal period, an explicit long AR
// order, and long AR orders at the lane kernels' block edges (16 and
// 4 lags, 16 residuals; lagsum.go), pure AR included.
func refConfigs() []Config {
	return []Config{
		DefaultConfig(),
		{P: 2, D: 0, Q: 0, SeasonalPeriod: 288, ClampMax: 100},
		{P: 0, D: 0, Q: 2, SeasonalPeriod: 288, ClampMax: 100},
		{P: 1, D: 1, Q: 1, SeasonalPeriod: 288, ClampMax: 100},
		{P: 2, D: 0, Q: 1, ClampMax: 100},
		{P: 2, D: 0, Q: 0},
		{P: 0, D: 1, Q: 2},
		{P: 0, D: 0, Q: 0, SeasonalPeriod: 288, ClampMax: 100},
		{P: 3, D: 2, Q: 2, SeasonalPeriod: 24, LongAROrder: 7, ClampMin: 5, ClampMax: 90},
		{P: 2, D: 0, Q: 1, SeasonalPeriod: 288, LongAROrder: 4, ClampMax: 100},
		{P: 1, D: 0, Q: 1, SeasonalPeriod: 288, LongAROrder: 16, ClampMax: 100},
		{P: 2, D: 0, Q: 2, SeasonalPeriod: 288, LongAROrder: 17, ClampMax: 100},
		{P: 2, D: 1, Q: 1, SeasonalPeriod: 288, LongAROrder: 19, ClampMax: 100},
		{P: 0, D: 0, Q: 1, LongAROrder: 32, ClampMax: 100},
		{P: 3, D: 0, Q: 1, SeasonalPeriod: 24, LongAROrder: 33, ClampMax: 100},
		{P: 17, D: 0, Q: 0, SeasonalPeriod: 288, ClampMax: 100},
	}
}

func TestARIMAMatchesReferenceOnGeneratedVMs(t *testing.T) {
	cfg := trace.DefaultConfig(2018)
	cfg.VMs = 12
	cfg.Days = 9
	tr, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	day := trace.SamplesPerDay
	for _, mc := range refConfigs() {
		for v, vm := range tr.VMs {
			// Rolling week windows, as dcsim.Predict feeds them.
			for d := 0; d < 2; d++ {
				lo, hi := d*day, (d+7)*day
				checkMatchesRef(t, fmt.Sprintf("VM %d cpu day %d", v, d), mc, vm.CPU[lo:hi], day)
				checkMatchesRef(t, fmt.Sprintf("VM %d mem day %d", v, d), mc, vm.Mem[lo:hi], day)
			}
		}
	}
}

func TestARIMAMatchesReferenceOnEdgeCases(t *testing.T) {
	constant := make([]float64, 3*288)
	for i := range constant {
		constant[i] = 42
	}
	zeros := make([]float64, 3*288)
	diurnal := syntheticDiurnal(3*288, 4)
	stepped := syntheticDiurnal(3*288, 8)
	for i := range stepped[:288] {
		stepped[i] = 0 // idle first day, then load
	}
	cases := []struct {
		name     string
		history  []float64
		horizons []int
	}{
		{"constant", constant, []int{1, 288, 700}},
		{"zeros", zeros, []int{288}},
		{"diurnal", diurnal, []int{1, 5, 288, 700}},
		{"stepped", stepped, []int{288}},
		{"too-short", diurnal[:290], []int{288}},
		{"barely-long-enough", diurnal[:288+2+1+16], []int{288}},
		// 30 and 36 differenced samples: the default long AR (order
		// 20) leaves 10 stage-1 residuals (no 16-residual block) and 16
		// (exactly one block).
		{"few-residuals", diurnal[:288+30], []int{288}},
		{"one-block", diurnal[:288+36], []int{288}},
		{"empty", nil, []int{288}},
	}
	for _, mc := range append(refConfigs(),
		Config{P: -1, Q: 1, SeasonalPeriod: 288},
		Config{P: 1, Q: -2},
		Config{P: 2, Q: 1, SeasonalPeriod: 288, LongAROrder: 600},
	) {
		for _, c := range cases {
			for _, h := range c.horizons {
				checkMatchesRef(t, fmt.Sprintf("%s h=%d", c.name, h), mc, c.history, h)
			}
			checkMatchesRef(t, c.name+" h=0", mc, c.history, 0)
		}
	}
}

// FuzzARIMAForecast decodes bytes into a utilisation series in [0, 100]
// plus a model configuration and requires the fused kernel to match
// the reference bit for bit. The seed corpus is in testdata/fuzz.
func FuzzARIMAForecast(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		cfg := Config{
			P:              int(data[0] % 4),
			D:              int(data[1] % 3),
			Q:              int(data[2] % 4),
			SeasonalPeriod: []int{0, 4, 12, 24}[data[3]%4],
			LongAROrder:    int(data[3]/4) % 24,
			ClampMax:       100,
		}
		horizon := 1 + int(data[4])
		// Each byte after the header becomes a run of four samples, so
		// that short inputs still reach the model-fitting paths.
		var series []float64
		for _, b := range data[5:] {
			v := float64(b) * 100 / 255
			series = append(series, v, v, v, v)
		}
		checkMatchesRef(t, "fuzz", cfg, series, horizon)
	})
}

// refSolveLinear solves the dense system A·x = b using Gaussian
// elimination with partial pivoting. A is given row-major as a slice
// of rows; it is not modified. The systems are tiny (order <= ~30),
// so an O(n^3) dense solve is the right tool.
func refSolveLinear(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	if n == 0 || len(b) != n {
		return nil, mathx.ErrLengthMismatch
	}
	// Work on a copy in augmented form.
	m := make([]float64, n*(n+1))
	for i := range a {
		if len(a[i]) != n {
			return nil, mathx.ErrLengthMismatch
		}
		copy(m[i*(n+1):], a[i])
		m[i*(n+1)+n] = b[i]
	}
	x := make([]float64, n)
	if err := mathx.SolveAugmented(m, x); err != nil {
		return nil, err
	}
	return x, nil
}

// refAutocovariance returns the sample autocovariances of xs at lags
// 0..maxLag (biased estimator, divide by n), as needed by Yule-Walker.
func refAutocovariance(xs []float64, maxLag int) []float64 {
	n := len(xs)
	out := make([]float64, maxLag+1)
	if n == 0 {
		return out
	}
	m := mathx.Mean(xs)
	for lag := 0; lag <= maxLag && lag < n; lag++ {
		s := 0.0
		for i := 0; i+lag < n; i++ {
			s += float64((xs[i] - m) * (xs[i+lag] - m))
		}
		out[lag] = s / float64(n)
	}
	return out
}

// refYuleWalker fits an AR(p) model to xs and returns the AR
// coefficients phi[0..p-1] (so that x_t ~ sum_i phi[i]*x_{t-1-i} + e_t,
// in deviations from the mean) and the innovation variance estimate.
func refYuleWalker(xs []float64, p int) (phi []float64, sigma2 float64, err error) {
	if p <= 0 {
		return nil, 0, errors.New("mathx: YuleWalker order must be positive")
	}
	if len(xs) <= p {
		return nil, 0, errors.New("mathx: YuleWalker needs more samples than the AR order")
	}
	gamma := refAutocovariance(xs, p)
	// A (numerically) constant series has no autocovariance structure:
	// AR coefficients are all zero and the innovations have zero
	// variance. Compare against the scale of the data to absorb float
	// round-off from the mean subtraction.
	scale := 1.0 + math.Abs(mathx.Mean(xs))
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
	phi, err = refSolveLinear(r, rhs)
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

// refLeastSquares solves the overdetermined system X·beta ~= y in the
// least-squares sense via the normal equations (XᵀX)·beta = Xᵀy.
// X is row-major with one observation per row. The regressions are
// small and well-scaled, so normal equations suffice.
func refLeastSquares(x [][]float64, y []float64) ([]float64, error) {
	nObs := len(x)
	if nObs == 0 || len(y) != nObs {
		return nil, mathx.ErrLengthMismatch
	}
	nVar := len(x[0])
	xtx := make([][]float64, nVar)
	xty := make([]float64, nVar)
	for i := range xtx {
		xtx[i] = make([]float64, nVar)
	}
	for r := 0; r < nObs; r++ {
		if len(x[r]) != nVar {
			return nil, mathx.ErrLengthMismatch
		}
		for i := 0; i < nVar; i++ {
			xty[i] += float64(x[r][i] * y[r])
			for j := i; j < nVar; j++ {
				xtx[i][j] += float64(x[r][i] * x[r][j])
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
	return refSolveLinear(xtx, xty)
}

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// testRNG is a tiny deterministic generator for the solver tests, so
// seeds stay explicit and reproducible across Go versions.
type testRNG struct{ state uint64 }

func newTestRNG(seed int64) *testRNG {
	s := uint64(seed)*2862933555777941757 + 3037000493
	return &testRNG{state: s | 1}
}

func (r *testRNG) next() float64 {
	r.state ^= r.state << 13
	r.state ^= r.state >> 7
	r.state ^= r.state << 17
	return float64(r.state%1_000_000) / 10_000 // [0, 100)
}

func TestSolveLinearKnownSystem(t *testing.T) {
	a := [][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	}
	b := []float64{8, -11, -3}
	x, err := refSolveLinear(a, b)
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
	if _, err := refSolveLinear(a, []float64{1, 2}); err != mathx.ErrSingular {
		t.Errorf("err = %v, want ErrSingular", err)
	}
}

func TestSolveLinearShapeErrors(t *testing.T) {
	if _, err := refSolveLinear(nil, nil); err != mathx.ErrLengthMismatch {
		t.Errorf("empty err = %v, want ErrLengthMismatch", err)
	}
	if _, err := refSolveLinear([][]float64{{1, 2}}, []float64{1}); err != mathx.ErrLengthMismatch {
		t.Errorf("ragged err = %v, want ErrLengthMismatch", err)
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
		x, err := refSolveLinear(a, b)
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
	g := refAutocovariance(xs, 3)
	if !almost(g[0], mathx.Variance(xs), 1e-12) {
		t.Errorf("gamma[0] = %v, want Variance = %v", g[0], mathx.Variance(xs))
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
	phi, sigma2, err := refYuleWalker(xs, 1)
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
	phi, sigma2, err := refYuleWalker(xs, 2)
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
	if _, _, err := refYuleWalker([]float64{1, 2, 3}, 0); err == nil {
		t.Error("order 0 should error")
	}
	if _, _, err := refYuleWalker([]float64{1, 2}, 5); err == nil {
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
	beta, err := refLeastSquares(x, y)
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
	beta, err := refLeastSquares(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(beta[0]-5) > 0.05 {
		t.Errorf("slope = %v, want ~5", beta[0])
	}
}

func TestLeastSquaresShapeErrors(t *testing.T) {
	if _, err := refLeastSquares(nil, nil); err != mathx.ErrLengthMismatch {
		t.Errorf("empty err = %v, want ErrLengthMismatch", err)
	}
	if _, err := refLeastSquares([][]float64{{1}, {1, 2}}, []float64{1, 2}); err != mathx.ErrLengthMismatch {
		t.Errorf("ragged err = %v, want ErrLengthMismatch", err)
	}
}
