package forecast

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/mathx"
)

// Order selection: the Box-Jenkins methodology the paper cites picks
// (p, q) from information criteria on the fitted innovations. SelectOrder
// implements AIC-based selection over a small candidate grid, giving
// the repository a principled default instead of a hard-coded (2,0,1).

// OrderCandidate is one (P, Q) pair with its fitted score.
type OrderCandidate struct {
	P, Q int

	// AIC is Akaike's information criterion on the in-sample
	// innovations (lower is better).
	AIC float64
}

// SelectOrder fits ARMA(p,q) for every p in [0,maxP], q in [0,maxQ]
// (excluding the empty model) on the series after the given seasonal
// differencing, and returns the candidates sorted best-first.
func SelectOrder(series []float64, maxP, maxQ, seasonalPeriod int) ([]OrderCandidate, error) {
	if maxP < 0 || maxQ < 0 || maxP+maxQ == 0 {
		return nil, errors.New("forecast: need a non-empty order grid")
	}
	if seasonalPeriod > 0 && len(series) <= seasonalPeriod+maxP+maxQ+20 {
		return nil, errTooShort
	}

	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	var out []OrderCandidate
	for p := 0; p <= maxP; p++ {
		for q := 0; q <= maxQ; q++ {
			if p+q == 0 {
				continue
			}
			if _, err := s.fit(series, Config{P: p, Q: q, SeasonalPeriod: seasonalPeriod}); err != nil {
				continue
			}
			aic, ok := aicOf(s.eps, p+q)
			if !ok {
				continue
			}
			out = append(out, OrderCandidate{P: p, Q: q, AIC: aic})
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("forecast: no (p,q) candidate could be fitted")
	}
	// Sort best (lowest AIC) first; stable order on ties.
	for i := 0; i < len(out); i++ {
		for j := i + 1; j < len(out); j++ {
			if out[j].AIC < out[i].AIC {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	return out, nil
}

// aicOf computes AIC = n·ln(sigma²) + 2k from n in-sample innovations.
func aicOf(resid []float64, k int) (float64, bool) {
	n := len(resid)
	if n == 0 {
		return 0, false
	}
	ss := 0.0
	for _, e := range resid {
		ss += e * e
	}
	sigma2 := ss / float64(n)
	if sigma2 <= 0 {
		// Perfect fit (constant series): any parsimonious model works.
		return float64(2 * k), true
	}
	aic := float64(n)*math.Log(sigma2) + 2*float64(k)
	if math.IsNaN(aic) || math.IsInf(aic, 0) {
		return 0, false
	}
	return aic, true
}

// AutoARIMA returns an ARIMA predictor whose (p,q) order was selected
// by AIC on the provided training series.
func AutoARIMA(training []float64, seasonalPeriod int) (*ARIMA, error) {
	cands, err := SelectOrder(training, 3, 2, seasonalPeriod)
	if err != nil {
		return nil, err
	}
	best := cands[0]
	return &ARIMA{Cfg: Config{
		P: best.P, D: 0, Q: best.Q,
		SeasonalPeriod: seasonalPeriod,
		ClampMin:       0, ClampMax: 100,
	}}, nil
}

// ForecastInterval augments a point forecast with a ±z·sigma band
// from the in-sample innovation standard deviation — enough for the
// allocator to reason about headroom, without full predictive
// distributions.
type ForecastInterval struct {
	Point      []float64
	Lower      []float64
	Upper      []float64
	ResidStdev float64
}

// ForecastWithInterval runs the ARIMA forecast and wraps it with a
// constant-width ±z·sigma interval (z = 1.96 for ~95%).
func (a *ARIMA) ForecastWithInterval(history []float64, horizon int, z float64) (*ForecastInterval, error) {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	point, err := a.forecast(s, history, horizon)
	if err != nil {
		return nil, err
	}
	// The innovation scale of the fit behind the point forecast.
	sigma := mathx.Std(s.eps)
	out := &ForecastInterval{Point: point, ResidStdev: sigma}
	out.Lower = make([]float64, horizon)
	out.Upper = make([]float64, horizon)
	for i := range point {
		out.Lower[i] = mathx.Clamp(point[i]-z*sigma, a.Cfg.ClampMin, a.Cfg.ClampMax)
		out.Upper[i] = mathx.Clamp(point[i]+z*sigma, a.Cfg.ClampMin, a.Cfg.ClampMax)
	}
	return out, nil
}
