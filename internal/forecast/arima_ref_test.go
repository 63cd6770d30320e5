package forecast

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/mathx"
	"repro/internal/trace"
)

// This file keeps a verbatim copy of the straightforward ARIMA fit
// (copied history, one materialised regression row per observation,
// mathx.YuleWalker / mathx.LeastSquares, forecast recursion over
// copies of the whole series) and tests that the fused kernel in
// arima.go returns bit-identical forecasts and the same errors. If a
// future change to arima.go alters any forecast bit, these tests fail
// before the golden figures do.

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
		phi, _, err := mathx.YuleWalker(x, p)
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
	longPhi, _, err := mathx.YuleWalker(x, m1)
	if err != nil {
		return nil, err
	}
	eps := make([]float64, len(x))
	for t := m1; t < len(x); t++ {
		pred := 0.0
		for i := 0; i < m1; i++ {
			pred += longPhi[i] * x[t-1-i]
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
	beta, err := mathx.LeastSquares(rows, ys)
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
			pred += m.phi[i] * x[t-1-i]
		}
		for j := 0; j < q && t-1-j >= 0; j++ {
			pred += m.theta[j] * eps[t-1-j]
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
			pred += m.phi[i] * xs[t-1-i]
		}
		for j := 0; j < q && t-1-j >= 0; j++ {
			pred += m.theta[j] * eps[t-1-j]
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
	got, gotErr := a.Forecast(history, horizon)
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
	if _, err := a.forecast(&s, history, horizon); err != nil {
		t.Fatalf("%s %s: refit: %v", label, a.Name(), err)
	}
	if got, sd := mathx.Std(s.eps), mathx.Std(resid); math.Float64bits(got) != math.Float64bits(sd) {
		t.Fatalf("%s %s: innovation sd = %v, reference %v", label, a.Name(), got, sd)
	}
}

// refConfigs are the model shapes the kernel must reproduce: the
// data-center default, pure AR, pure MA, an integrated model, a
// non-seasonal default, a short seasonal period and an explicit long
// AR order.
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
