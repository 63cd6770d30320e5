package experiments

// The ablations check three design decisions of the reproduction:
// #1 the closed-form T(f) performance path against the event-level
// micro model (micro_ref_test.go), #2 EPACT's advantage across trace
// correlation strengths, #3 the forecasters against each other. No
// binary reports them, so they live with their tests and benchmarks.

import (
	"fmt"
	"testing"

	"repro/internal/alloc"
	"repro/internal/dcsim"
	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/workload"
)

// AblationPerfRow compares the calibrated analytical performance path
// against the event-granular micro simulation for one workload class.
type AblationPerfRow struct {
	Workload string

	// AnalyticMPKI vs MicroMPKI: LLC misses per kilo-instruction.
	AnalyticMPKI, MicroMPKI float64

	// AnalyticWFM vs MicroWFM: wait-for-memory fraction at 2 GHz.
	AnalyticWFM, MicroWFM float64

	// TimeRatio is micro/analytic single-core execution-time ratio
	// for the same instruction count at 2 GHz.
	TimeRatio float64
}

// AblationPerfModel cross-checks design decision #1: the
// closed-form T(f) path and the cache/DRAM event path must agree on
// the aggregate observables the DC study consumes.
func AblationPerfModel() ([]AblationPerfRow, error) {
	pl := platform.NTCServer()
	micro := ntcMicroModel()
	f := units.GHz(2)
	const instructions = 2_000_000

	var rows []AblationPerfRow
	for _, c := range workload.Classes() {
		spec := workload.Get(c)
		mr, err := micro.Run(spec, f, instructions, 1234)
		if err != nil {
			return nil, err
		}
		cell := pl.Cell(c)
		cellTime := cell.CexeGHzs/f.GHz() + cell.TmemSec
		analyticTime := cellTime * instructions / spec.Instructions
		rows = append(rows, AblationPerfRow{
			Workload:     c.String(),
			AnalyticMPKI: spec.MPKI,
			MicroMPKI:    mr.MPKI,
			AnalyticWFM:  cell.TmemSec / cellTime,
			MicroWFM:     mr.WFMFraction,
			TimeRatio:    mr.Time / analyticTime,
		})
	}
	return rows, nil
}

// AblationForecastRow reports one predictor's effect on the week run.
type AblationForecastRow struct {
	Predictor     string
	EPACTViol     int
	COATViol      int
	EPACTEnergyMJ float64
}

// AblationForecast compares ARIMA against seasonal-naive, last-value
// and the oracle on the same trace (design decision #3): violation
// counts isolate how much forecast quality matters per policy. The
// sweep engine shares the trace across all four predictor variants.
func AblationForecast(cfg DCConfig) ([]AblationForecastRow, error) {
	g := weekGrid(cfg, []string{"EPACT", "COAT"})
	g.Predictors = sweep.PredictorNames()
	runs, err := runGrid(g)
	if err != nil {
		return nil, err
	}
	// Policies are innermost in expansion order: (EPACT, COAT) pairs
	// per predictor.
	var rows []AblationForecastRow
	for i := 0; i+1 < len(runs); i += 2 {
		epact, coat := &runs[i], &runs[i+1]
		rows = append(rows, AblationForecastRow{
			Predictor:     epact.PredictorImpl,
			EPACTViol:     epact.Violations,
			COATViol:      coat.Violations,
			EPACTEnergyMJ: epact.TotalEnergyMJ,
		})
	}
	return rows, nil
}

// AblationTraceRow reports EPACT's advantage at one correlation level.
type AblationTraceRow struct {
	// CommonStd is the generator's correlated-component strength.
	CommonStd float64

	// IntraGroupCorr is the measured mean intra-group correlation.
	IntraGroupCorr float64

	// SavingVsCOATPct is EPACT's weekly saving.
	SavingVsCOATPct float64
}

// AblationTraceCorrelation sweeps the trace generator's correlation
// strength (design decision #2): EPACT's advantage must persist
// across the regime real traces occupy. A grid cannot express the
// generator's correlation strength, so each point builds its trace
// and runs the three policies by hand.
func AblationTraceCorrelation(cfg DCConfig) ([]AblationTraceRow, error) {
	var rows []AblationTraceRow
	for _, std := range []float64{0, 2, 4} {
		tc := sweep.DCTraceConfig(cfg.Seed, cfg.VMs, 7+cfg.EvalDays)
		tc.CommonStd = std
		tr, err := trace.Generate(tc)
		if err != nil {
			return nil, err
		}
		ps, err := dcsim.Predict(tr, nil, 7, cfg.EvalDays)
		if err != nil {
			return nil, err
		}
		week, err := fig4to6With(cfg, tr, ps)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationTraceRow{
			CommonStd:       std,
			IntraGroupCorr:  tr.MeanIntraGroupCorrelation(tc.Groups),
			SavingVsCOATPct: week.Summary.WeeklySavingVsCOATPct,
		})
	}
	return rows, nil
}

// fig4to6With runs the Figs. 4-6 comparison (EPACT, COAT, COAT-OPT)
// on a pre-built trace and prediction set.
func fig4to6With(cfg DCConfig, tr *trace.Trace, ps *dcsim.PredictionSet) (*DCWeekResult, error) {
	model := power.NTCServer()
	if cfg.StaticPowerW > 0 {
		model.Motherboard = units.Watts(cfg.StaticPowerW)
	}
	spec := alloc.ServerSpec{
		Cores:         model.Cores,
		MemContainers: model.DRAM.Capacity.GB(),
		FMax:          model.FMax,
		FMin:          model.FMin,
	}
	policies := []alloc.Policy{
		&alloc.EPACT{Model: model},
		alloc.NewCOAT(spec),
		alloc.NewCOATOPT(spec, model.OptimalFrequency()),
	}

	var sims []*dcsim.Result
	for _, pol := range policies {
		run, err := dcsim.Run(dcsim.Config{
			Trace:       tr,
			Predictions: ps,
			HistoryDays: 7,
			EvalDays:    cfg.EvalDays,
			Policy:      pol,
			Server:      model,
			Platform:    platform.NTCServer(),
			MaxServers:  cfg.MaxServers,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", pol.Name(), err)
		}
		sims = append(sims, run)
	}
	return weekFromResults(sims), nil
}

func TestAblationPerfModelAgreement(t *testing.T) {
	rows, err := AblationPerfModel()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	for _, r := range rows {
		if r.MicroMPKI < r.AnalyticMPKI/2.5 || r.MicroMPKI > r.AnalyticMPKI*2.5 {
			t.Errorf("%s: micro MPKI %.2f vs analytic %.2f beyond 2.5x", r.Workload, r.MicroMPKI, r.AnalyticMPKI)
		}
		if r.TimeRatio < 0.3 || r.TimeRatio > 3 {
			t.Errorf("%s: time ratio %.2f beyond 3x", r.Workload, r.TimeRatio)
		}
	}
}

func TestAblationForecast(t *testing.T) {
	cfg := smallDC()
	cfg.VMs = 80
	cfg.EvalDays = 1
	rows, err := AblationForecast(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4 predictors", len(rows))
	}
	byName := map[string]AblationForecastRow{}
	for _, r := range rows {
		byName[r.Predictor] = r
	}
	oracle := byName["oracle"]
	lastValue := byName["last-value"]
	// Worse prediction cannot reduce COAT violations below oracle.
	if lastValue.COATViol < oracle.COATViol {
		t.Errorf("last-value COAT violations %d below oracle %d", lastValue.COATViol, oracle.COATViol)
	}
}

func TestAblationTraceCorrelation(t *testing.T) {
	cfg := smallDC()
	cfg.VMs = 80
	cfg.EvalDays = 1
	rows, err := AblationTraceCorrelation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	// EPACT's advantage persists across correlation regimes.
	for _, r := range rows {
		if r.SavingVsCOATPct < 20 {
			t.Errorf("commonStd %.0f: saving %.1f%%, want >= 20%%", r.CommonStd, r.SavingVsCOATPct)
		}
	}
	// Correlation grows with the shared component.
	if rows[2].IntraGroupCorr <= rows[0].IntraGroupCorr {
		t.Errorf("intra-group correlation should grow with commonStd: %.2f -> %.2f",
			rows[0].IntraGroupCorr, rows[2].IntraGroupCorr)
	}
}

// BenchmarkAblationPerfModel compares the analytical and the
// event-granular performance paths (design decision #1).
func BenchmarkAblationPerfModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := AblationPerfModel()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 3 {
			b.Fatal("missing rows")
		}
	}
}

// BenchmarkAblationForecast compares predictors on violation counts
// (design decision #3).
func BenchmarkAblationForecast(b *testing.B) {
	cfg := goldenExtConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := AblationForecast(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatal("missing rows")
		}
	}
}

// BenchmarkAblationTrace sweeps trace correlation strength (design
// decision #2).
func BenchmarkAblationTrace(b *testing.B) {
	cfg := goldenExtConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := AblationTraceCorrelation(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 3 {
			b.Fatal("missing rows")
		}
	}
}
