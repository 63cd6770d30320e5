package forecast

import (
	"math"
	"testing"

	"repro/internal/mathx"
	"repro/internal/trace"
)

// syntheticDiurnal builds a noisy periodic series resembling one VM's
// CPU trace: period 288, n samples.
func syntheticDiurnal(n int, seed uint64) []float64 {
	out := make([]float64, n)
	state := seed*6364136223846793005 + 1442695040888963407
	next := func() float64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return float64(state%1000)/500 - 1 // [-1, 1)
	}
	for i := range out {
		t := float64(i) / 288 * 2 * math.Pi
		out[i] = 45 + 22*math.Sin(t) + 6*math.Sin(2*t) + 2.5*next()
		if out[i] < 0 {
			out[i] = 0
		}
	}
	return out
}

func TestARIMAForecastsDiurnalSeries(t *testing.T) {
	// Train on 6 days, forecast day 7, compare with the true day 7.
	series := syntheticDiurnal(7*288, 5)
	history, actual := series[:6*288], series[6*288:]
	a := &ARIMA{Cfg: DefaultConfig()}
	got, err := a.Forecast(history, 288)
	if err != nil {
		t.Fatal(err)
	}
	rmse, err := mathx.RMSE(actual, got)
	if err != nil {
		t.Fatal(err)
	}
	// The signal swings ±22 around 45; a useful forecast must get
	// well under the signal's own standard deviation (~16).
	if rmse > 8 {
		t.Errorf("ARIMA RMSE = %.2f, want <= 8 on a clean diurnal series", rmse)
	}
}

func TestARIMABeatsLastValueOnDiurnal(t *testing.T) {
	series := syntheticDiurnal(7*288, 9)
	history, actual := series[:6*288], series[6*288:]

	a := &ARIMA{Cfg: DefaultConfig()}
	arimaPred, err := a.Forecast(history, 288)
	if err != nil {
		t.Fatal(err)
	}
	lvPred, err := LastValue{}.Forecast(history, 288)
	if err != nil {
		t.Fatal(err)
	}
	arimaRMSE, _ := mathx.RMSE(actual, arimaPred)
	lvRMSE, _ := mathx.RMSE(actual, lvPred)
	if arimaRMSE >= lvRMSE {
		t.Errorf("ARIMA RMSE %.2f should beat last-value %.2f on diurnal data", arimaRMSE, lvRMSE)
	}
}

func TestARIMAOnGeneratedVMTrace(t *testing.T) {
	// End-to-end against the trace generator: forecast a real VM's
	// day 7 from days 1-6 and demand a clearly-better-than-flat error.
	tr, err := trace.Generate(trace.DefaultConfig(21))
	if err != nil {
		t.Fatal(err)
	}
	vm := tr.VMs[3]
	history, actual := vm.CPU[:6*288], vm.CPU[6*288:]
	a := &ARIMA{Cfg: DefaultConfig()}
	pred, err := a.Forecast(history, 288)
	if err != nil {
		t.Fatal(err)
	}
	rmse, _ := mathx.RMSE(actual, pred)
	sd := mathx.Std(actual)
	if rmse > 1.2*sd {
		t.Errorf("VM-trace RMSE = %.2f vs actual sd %.2f: forecast no better than noise", rmse, sd)
	}
	// Forecasts stay in the clamped percent range.
	for i, p := range pred {
		if p < 0 || p > 100 {
			t.Fatalf("forecast[%d] = %v outside [0,100]", i, p)
		}
	}
}

func TestARIMAConstantSeries(t *testing.T) {
	series := make([]float64, 800)
	for i := range series {
		series[i] = 42
	}
	a := &ARIMA{Cfg: Config{P: 2, D: 0, Q: 1, SeasonalPeriod: 288, ClampMin: 0, ClampMax: 100}}
	pred, err := a.Forecast(series, 24)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pred {
		if math.Abs(p-42) > 1e-6 {
			t.Fatalf("constant-series forecast[%d] = %v, want 42", i, p)
		}
	}
}

func TestARIMAPureARAndPureMA(t *testing.T) {
	series := syntheticDiurnal(5*288, 3)
	// AR-only (q=0) and MA via Hannan-Rissanen must both run.
	for _, cfg := range []Config{
		{P: 3, D: 0, Q: 0, SeasonalPeriod: 288, ClampMax: 100},
		{P: 0, D: 1, Q: 2, SeasonalPeriod: 0, ClampMax: 100},
		{P: 1, D: 1, Q: 1, SeasonalPeriod: 0, ClampMax: 100},
	} {
		a := &ARIMA{Cfg: cfg}
		pred, err := a.Forecast(series, 12)
		if err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		if len(pred) != 12 {
			t.Fatalf("%s: len = %d, want 12", a.Name(), len(pred))
		}
		for i, p := range pred {
			if math.IsNaN(p) || math.IsInf(p, 0) {
				t.Fatalf("%s: forecast[%d] = %v", a.Name(), i, p)
			}
		}
	}
}

func TestARIMAForecastAllocations(t *testing.T) {
	// The fit runs on pooled scratch buffers, so in steady state a
	// call allocates only its result (the pool may add one on a miss).
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	history := syntheticDiurnal(7*288, 11)
	a := &ARIMA{Cfg: DefaultConfig()}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := a.Forecast(history, 288); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("Forecast allocates %.1f times per call, want <= 2", allocs)
	}
}

func TestARIMAErrors(t *testing.T) {
	a := &ARIMA{Cfg: DefaultConfig()}
	if _, err := a.Forecast([]float64{1, 2, 3}, 10); err == nil {
		t.Error("short history accepted")
	}
	long := syntheticDiurnal(2000, 1)
	if _, err := a.Forecast(long, 0); err == nil {
		t.Error("zero horizon accepted")
	}
	bad := &ARIMA{Cfg: Config{P: -1}}
	if _, err := bad.Forecast(long, 5); err == nil {
		t.Error("negative order accepted")
	}
}

func TestSeasonalNaive(t *testing.T) {
	history := []float64{1, 2, 3, 4, 10, 20, 30, 40}
	s := &SeasonalNaive{Period: 4}
	pred, err := s.Forecast(history, 6)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{10, 20, 30, 40, 10, 20}
	for i := range want {
		if pred[i] != want[i] {
			t.Errorf("pred[%d] = %v, want %v", i, pred[i], want[i])
		}
	}
	if _, err := s.Forecast([]float64{1}, 2); err == nil {
		t.Error("short history accepted")
	}
	if _, err := (&SeasonalNaive{}).Forecast(history, 2); err == nil {
		t.Error("zero period accepted")
	}
}

func TestLastValue(t *testing.T) {
	pred, err := LastValue{}.Forecast([]float64{5, 6, 7}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pred {
		if p != 7 {
			t.Errorf("pred[%d] = %v, want 7", i, p)
		}
	}
	if _, err := (LastValue{}).Forecast(nil, 3); err == nil {
		t.Error("empty history accepted")
	}
}

func TestOracle(t *testing.T) {
	o := &Oracle{Future: []float64{1, 2, 3}}
	pred, err := o.Forecast(nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if pred[0] != 1 || pred[1] != 2 {
		t.Errorf("oracle pred = %v", pred)
	}
	if _, err := o.Forecast(nil, 5); err == nil {
		t.Error("horizon beyond future accepted")
	}
}

func TestPredictorNames(t *testing.T) {
	names := []string{
		(&ARIMA{Cfg: DefaultConfig()}).Name(),
		(&ARIMA{Cfg: Config{P: 1, D: 1, Q: 1}}).Name(),
		(&SeasonalNaive{Period: 288}).Name(),
		LastValue{}.Name(),
		(&Oracle{}).Name(),
	}
	want := []string{"ARIMA(2,0,1)s288", "ARIMA(1,1,1)", "seasonal-naive(288)", "last-value", "oracle"}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("name[%d] = %q, want %q", i, names[i], want[i])
		}
	}
}
