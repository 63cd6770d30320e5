package forecast

import (
	"errors"
	"fmt"
)

// SeasonalNaive forecasts each future sample as the value one period
// earlier — "tomorrow looks like today". It is the natural reference
// point for the ARIMA ablation on strongly diurnal traces.
type SeasonalNaive struct {
	Period int
}

// Name implements Predictor.
func (s *SeasonalNaive) Name() string { return fmt.Sprintf("seasonal-naive(%d)", s.Period) }

// Forecast implements Predictor.
func (s *SeasonalNaive) Forecast(dst, history []float64) error {
	if s.Period <= 0 {
		return errors.New("forecast: seasonal-naive needs a positive period")
	}
	if len(history) < s.Period {
		return fmt.Errorf("%w: have %d, need >= %d", errTooShort, len(history), s.Period)
	}
	if len(dst) == 0 {
		return errBadHorizon
	}
	n := len(history)
	for h := range dst {
		dst[h] = history[n-s.Period+h%s.Period]
	}
	return nil
}

// LastValue forecasts a flat continuation of the final sample — the
// weakest reasonable baseline.
type LastValue struct{}

// Name implements Predictor.
func (LastValue) Name() string { return "last-value" }

// Forecast implements Predictor.
func (LastValue) Forecast(dst, history []float64) error {
	if len(history) == 0 {
		return errTooShort
	}
	if len(dst) == 0 {
		return errBadHorizon
	}
	last := history[len(history)-1]
	for i := range dst {
		dst[i] = last
	}
	return nil
}
