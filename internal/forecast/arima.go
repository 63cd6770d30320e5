// Package forecast implements the prediction layer EPACT requires
// (Section V-B): at the start of every time slot the policy needs the
// per-VM CPU and memory utilisation patterns for the slot ahead. The
// paper uses ARIMA (Box–Jenkins [24]) fed with the previous week and
// forecasting the next day per VM.
//
// The main model is ARIMA(p,d,q) with optional seasonal differencing
// at the daily period, estimated by the Hannan–Rissanen two-stage
// procedure: a long autoregression (Yule–Walker) recovers the
// innovation sequence, then the ARMA coefficients are obtained by
// least squares on lagged values and lagged innovations. Two simple
// reference predictors (seasonal-naive and last-value) support the
// forecast-quality ablation.
package forecast

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/mathx"
)

// Predictor forecasts the next horizon samples of a series.
type Predictor interface {
	// Name identifies the predictor in reports.
	Name() string

	// Forecast returns horizon forecasted values given the history.
	// Implementations must not modify history, and must be safe for
	// concurrent use: dcsim.Predict and dcsim.LiveFeed share one
	// Predictor across goroutines.
	Forecast(history []float64, horizon int) ([]float64, error)
}

// Config parameterises an ARIMA predictor.
type Config struct {
	// P, D, Q are the autoregressive order, differencing degree and
	// moving-average order.
	P, D, Q int

	// SeasonalPeriod, when positive, applies one round of seasonal
	// differencing at that period before the (p,d,q) model — the
	// standard way to exploit the traces' daily cycle (period 288).
	SeasonalPeriod int

	// LongAROrder is the order of the stage-1 autoregression in
	// Hannan–Rissanen; 0 picks max(20, 2*(P+Q)).
	LongAROrder int

	// ClampMin/ClampMax bound the forecasts (utilisations live in
	// [0, 100]).
	ClampMin, ClampMax float64
}

// DefaultConfig is the configuration used by the data-center runs:
// ARIMA(2,0,1) on daily-seasonally-differenced series, clamped to
// percent range.
func DefaultConfig() Config {
	return Config{P: 2, D: 0, Q: 1, SeasonalPeriod: 288, ClampMin: 0, ClampMax: 100}
}

// ARIMA is a Predictor backed by the model above.
type ARIMA struct {
	Cfg Config
}

// Name implements Predictor.
func (a *ARIMA) Name() string {
	if a.Cfg.SeasonalPeriod > 0 {
		return fmt.Sprintf("ARIMA(%d,%d,%d)s%d", a.Cfg.P, a.Cfg.D, a.Cfg.Q, a.Cfg.SeasonalPeriod)
	}
	return fmt.Sprintf("ARIMA(%d,%d,%d)", a.Cfg.P, a.Cfg.D, a.Cfg.Q)
}

var (
	// errTooShort reports a history shorter than the model needs.
	errTooShort      = errors.New("forecast: history too short for model configuration")
	errBadHorizon    = errors.New("forecast: horizon must be positive")
	errNegativeOrder = errors.New("forecast: negative ARMA order")
)

// scratch holds one Forecast call's working buffers. dcsim.Predict and
// dcsim.LiveFeed call Forecast on one *ARIMA from many goroutines, so
// the buffers come from a pool rather than living on the ARIMA.
type scratch struct {
	work []float64 // differenced series
	x    []float64 // work minus its mean
	d    []float64 // x minus its own mean, for the autocovariances
	eps  []float64 // innovations: stage 1, then under the fitted model
	acov []float64 // autocovariance sums by lag
	sys  []float64 // augmented linear system [A | b]
	long []float64 // stage-1 long-AR coefficients
	coef []float64 // ARMA coefficients: phi then theta
	xw   []float64 // last p values of x, then the forecasts
	ew   []float64 // last q innovations, then zero future innovations
	lvl  []float64 // last value before each ordinary difference
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// grow returns buf resliced to n, reallocating only when too small.
// The contents are stale: callers overwrite or clear what they read.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// Forecast implements Predictor. It is safe for concurrent use.
func (a *ARIMA) Forecast(history []float64, horizon int) ([]float64, error) {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	return a.forecast(s, history, horizon)
}

// forecast differences the series, fits ARMA(p, q) to it, iterates the
// model over the horizon with zero future innovations and inverts the
// differencing. Every sum runs in the same term order as the textbook
// formulation (kept as the reference in arima_ref_test.go), so the
// forecasts are bit-for-bit the same; only the memory traffic and the
// instruction-level parallelism differ. The fit's in-sample
// innovations are left in s.eps.
func (a *ARIMA) forecast(s *scratch, history []float64, horizon int) ([]float64, error) {
	cfg := a.Cfg
	if horizon <= 0 {
		return nil, errBadHorizon
	}
	needed := cfg.SeasonalPeriod + cfg.D + cfg.P + cfg.Q + 16
	if len(history) < needed {
		return nil, fmt.Errorf("%w: have %d, need >= %d", errTooShort, len(history), needed)
	}
	mean, err := s.fit(history, cfg)
	if err != nil {
		return nil, err
	}

	// Iterate the recursion; only the last p values and q innovations
	// of the fitted series matter.
	p, q, n := cfg.P, cfg.Q, len(s.x)
	phi, theta := s.coef[:p], s.coef[p:]
	xw := grow(s.xw, p+horizon)
	s.xw = xw
	copy(xw, s.x[n-p:])
	ew := grow(s.ew, q+horizon)
	s.ew = ew
	copy(ew, s.eps[n-q:])
	clear(ew[q:])
	pred := make([]float64, horizon)
	for h := range pred {
		v := 0.0
		for i, c := range phi {
			v += c * xw[p+h-1-i]
		}
		for j, c := range theta {
			v += c * ew[q+h-1-j]
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		xw[p+h] = v
		pred[h] = v + mean
	}

	// Invert ordinary differencing (integrate).
	for i := cfg.D - 1; i >= 0; i-- {
		level := s.lvl[i]
		for j := range pred {
			level += pred[j]
			pred[j] = level
		}
	}

	// Invert seasonal differencing: x[t] = d[t] + x[t-s], which
	// references forecasted values once the horizon exceeds a season.
	if sp := cfg.SeasonalPeriod; sp > 0 {
		n := len(history)
		for j := range pred {
			if idx := n + j - sp; idx >= n {
				pred[j] += pred[idx-n]
			} else {
				pred[j] += history[idx]
			}
		}
	}

	// Clamp to the valid range.
	if cfg.ClampMax > cfg.ClampMin {
		for j := range pred {
			pred[j] = mathx.Clamp(pred[j], cfg.ClampMin, cfg.ClampMax)
		}
	}
	return pred, nil
}

// fit differences history as cfg asks and fits ARMA(cfg.P, cfg.Q) to
// the result by Hannan–Rissanen. It returns the differenced series'
// mean and leaves the series minus that mean in s.x, the coefficients
// (phi then theta) in s.coef, the in-sample innovations in s.eps and
// each ordinary-differencing round's last value in s.lvl. history is
// only read.
func (s *scratch) fit(history []float64, cfg Config) (float64, error) {
	p, q := cfg.P, cfg.Q
	if p < 0 || q < 0 {
		return 0, errNegativeOrder
	}

	// Seasonal, then ordinary differencing (in place once work is
	// scratch).
	work := history
	if sp := cfg.SeasonalPeriod; sp > 0 {
		s.work = grow(s.work, len(history)-sp)
		for t := sp; t < len(history); t++ {
			s.work[t-sp] = history[t] - history[t-sp]
		}
		work = s.work
	}
	s.lvl = grow(s.lvl, max(cfg.D, 0))
	for i := 0; i < cfg.D; i++ {
		s.lvl[i] = work[len(work)-1]
		s.work = grow(s.work, len(work)-1)
		for t := 1; t < len(work); t++ {
			s.work[t-1] = work[t] - work[t-1]
		}
		work = s.work
	}

	n := len(work)
	mean := mathx.Mean(work)
	x := grow(s.x, n)
	s.x = x
	for i, v := range work {
		x[i] = v - mean
	}
	d := grow(s.d, n)
	s.d = d
	mx := mathx.Mean(x)
	ss := 0.0
	for i, v := range x {
		d[i] = v - mx
		ss += d[i] * d[i]
	}
	coef := grow(s.coef, p+q)
	s.coef = coef
	eps := grow(s.eps, n)
	s.eps = eps
	switch {
	case math.Sqrt(ss/float64(n)) < 1e-9:
		// Degenerate (constant) series: forecast the mean.
		clear(coef)
		clear(eps)
		return mean, nil
	case q == 0:
		// Pure AR: Yule-Walker directly.
		if p > 0 {
			if err := s.yuleWalker(d, ss, mx, coef); err != nil {
				return 0, err
			}
		}
	default:
		if err := s.hannanRissanen(x, d, ss, mx, p, q, cfg.LongAROrder); err != nil {
			return 0, err
		}
	}

	// In-sample innovations under the fitted model; early t have fewer
	// lags.
	phi, theta := coef[:p], coef[p:]
	for t, xt := range x {
		pred := 0.0
		for i, c := range phi[:min(p, t)] {
			pred += c * x[t-1-i]
		}
		for j, c := range theta[:min(q, t)] {
			pred += c * eps[t-1-j]
		}
		eps[t] = xt - pred
	}
	return mean, nil
}

// hannanRissanen fits ARMA(p, q>0) to the mean-removed series x into
// s.coef, using s.eps for the stage-1 innovations. d, ss and mx are
// x's deviations from its own mean, their sum of squares and that
// mean.
func (s *scratch) hannanRissanen(x, d []float64, ss, mx float64, p, q, longAR int) error {
	n := len(x)
	eps := s.eps

	// Stage 1: long AR to estimate innovations.
	m1 := longAR
	if m1 <= 0 {
		m1 = max(2*(p+q), 20)
	}
	if n <= m1+p+q+1 {
		return errTooShort
	}
	long := grow(s.long, m1)
	s.long = long
	if err := s.yuleWalker(d, ss, mx, long); err != nil {
		return err
	}
	// Four residuals at a time: independent accumulators, each summing
	// its own lags in ascending order.
	t := m1
	for ; t+4 <= n; t += 4 {
		var p0, p1, p2, p3 float64
		win := x[t-m1 : t+3]
		for i, c := range long {
			w := win[m1-1-i : m1+3-i]
			p0 += c * w[0]
			p1 += c * w[1]
			p2 += c * w[2]
			p3 += c * w[3]
		}
		eps[t] = x[t] - p0
		eps[t+1] = x[t+1] - p1
		eps[t+2] = x[t+2] - p2
		eps[t+3] = x[t+3] - p3
	}
	for ; t < n; t++ {
		pred := 0.0
		for i, c := range long {
			pred += c * x[t-1-i]
		}
		eps[t] = x[t] - pred
	}

	// Stage 2: least squares of x_t on lagged x and lagged innovations
	// through the normal equations [XᵀX | Xᵀy]. Each entry is a dot
	// product of two lagged columns over t = start..n-1, taken four
	// entries at a time.
	k := p + q
	w := k + 1
	sys := grow(s.sys, k*w)
	s.sys = sys
	start := m1 + max(p, q)
	col := func(i int) []float64 {
		if i < p {
			return x[start-1-i : n-1-i]
		}
		return eps[start-1-(i-p) : n-1-(i-p)]
	}
	var (
		a, b [4][]float64
		dst  [4]int
		np   int
	)
	flush := func() {
		for j := np; j < 4; j++ { // pad with the first entry
			a[j], b[j], dst[j] = a[0], b[0], dst[0]
		}
		sums := dot4(a, b)
		for j := range np {
			sys[dst[j]] = sums[j]
		}
		np = 0
	}
	entry := func(u, v []float64, at int) {
		a[np], b[np], dst[np] = u, v, at
		if np++; np == 4 {
			flush()
		}
	}
	y := x[start:n]
	for i := 0; i < k; i++ {
		ci := col(i)
		entry(ci, y, i*w+k)
		for j := i; j < k; j++ {
			entry(ci, col(j), i*w+j)
		}
	}
	if np > 0 {
		flush()
	}
	for i := 0; i < k; i++ {
		for j := 0; j < i; j++ {
			sys[i*w+j] = sys[j*w+i]
		}
		// Tiny ridge term keeps near-collinear regressors (flat VM
		// traces) solvable without visibly biasing the fit.
		sys[i*w+i] += 1e-9
	}

	return mathx.SolveAugmented(sys, s.coef)
}

// yuleWalker fits AR(len(phi)) to a series by the Yule-Walker
// equations and writes the coefficients to phi, exactly as
// mathx.YuleWalker does. d holds the series' deviations from its mean
// mx and ss their sum of squares (the lag-0 autocovariance sum).
func (s *scratch) yuleWalker(d []float64, ss, mx float64, phi []float64) error {
	n, order := len(d), len(phi)
	if n <= order {
		return errTooShort
	}

	// Autocovariance sums, four lags at a time. Each lag adds its terms
	// in ascending i, like mathx.Autocovariance; the four lags are
	// independent chains, so their floating-point adds overlap.
	acov := grow(s.acov, order+1)
	s.acov = acov
	acov[0] = ss
	for k := 1; k <= order; k += 4 {
		// Lags k..k+3 share their first m terms; each then adds its
		// remaining terms, still in ascending i. Lags past order repeat
		// lag k and are discarded.
		m := max(n-k-3, 0)
		var a, b [4][]float64
		for j := range a {
			a[j], b[j] = d[:m], d[k:]
			if k+j <= order {
				b[j] = d[k+j:]
			}
		}
		sums := dot4(a, b)
		for j := 0; j < 4 && k+j <= order; j++ {
			for i := m; i+k+j < n; i++ {
				sums[j] += d[i] * d[i+k+j]
			}
			acov[k+j] = sums[j]
		}
	}
	for k := range acov {
		acov[k] /= float64(n)
	}

	// A (numerically) constant series has no autocovariance structure.
	scale := 1.0 + math.Abs(mx)
	if acov[0] <= 1e-12*scale*scale {
		clear(phi)
		return nil
	}
	// Toeplitz system R·phi = r with R[i][j] = gamma[|i-j|].
	w := order + 1
	sys := grow(s.sys, order*w)
	s.sys = sys
	for i := 0; i < order; i++ {
		r := sys[i*w : (i+1)*w]
		for j := 0; j < order; j++ {
			r[j] = acov[abs(i-j)]
		}
		r[order] = acov[i+1]
	}
	return mathx.SolveAugmented(sys, phi)
}

// dot4 returns the dot products a[j]·b[j], j = 0..3, over len(a[0])
// terms. Each sum runs in ascending index order in its own
// accumulator, so it equals a plain loop bit for bit, while the four
// independent chains hide floating-point add latency.
func dot4(a, b [4][]float64) (s [4]float64) {
	n := len(a[0])
	a0, a1, a2, a3 := a[0][:n], a[1][:n], a[2][:n], a[3][:n]
	b0, b1, b2, b3 := b[0][:n], b[1][:n], b[2][:n], b[3][:n]
	var s0, s1, s2, s3 float64
	for i := range a0 {
		s0 += a0[i] * b0[i]
		s1 += a1[i] * b1[i]
		s2 += a2[i] * b2[i]
		s3 += a3[i] * b3[i]
	}
	return [4]float64{s0, s1, s2, s3}
}

func abs(i int) int {
	if i < 0 {
		return -i
	}
	return i
}
