package experiments

import (
	"math"
	"testing"

	"repro/internal/dcsim"
)

// Golden-figure regression tests: the headline Fig. 4-6 / summary
// numbers for fixed seeds, captured from the original (serial) seed
// implementation before the sweep-engine refactor. Any change to the
// trace generator, predictors, allocators, power model or simulator
// that shifts the paper's numbers trips these tests.
//
// Integer counts must match exactly. Floats are compared to a 1e-6
// relative tolerance: runs are deterministic, so the slack only
// covers the 9-decimal truncation of the captured constants and
// compiler-level FP differences (e.g. FMA contraction on other
// architectures), not behavioural drift.

const goldenRelTol = 1e-6

func approx(t *testing.T, name string, got, want float64) {
	t.Helper()
	denom := math.Abs(want)
	if denom == 0 {
		denom = 1
	}
	if math.Abs(got-want)/denom > goldenRelTol {
		t.Errorf("%s = %.9f, want %.9f (golden)", name, got, want)
	}
}

// goldenWeekConfig is the pinned Fig. 4-6 scenario: 150 VMs over 2
// evaluated days with ARIMA predictions, seed 2018.
func goldenWeekConfig() DCConfig {
	cfg := DefaultDCConfig()
	cfg.VMs = 150
	cfg.EvalDays = 2
	return cfg
}

func TestGoldenFig4to6(t *testing.T) {
	week, err := Fig4to6(goldenWeekConfig())
	if err != nil {
		t.Fatal(err)
	}
	golden := []struct {
		policy     string
		energyMJ   float64
		violations int
		meanActive float64
		freqGHz    float64
	}{
		{"EPACT", 113.525470712, 0, 10.062500000, 1.879166667},
		{"COAT", 186.155257516, 960, 6.375000000, 3.100000000},
		{"COAT-OPT", 113.007977140, 1541, 10.000000000, 1.900000000},
	}
	if len(week.Policies) != len(golden) {
		t.Fatalf("policies = %v, want 3", week.Policies)
	}
	for i, g := range golden {
		if week.Policies[i] != g.policy {
			t.Fatalf("policy %d = %s, want %s", i, week.Policies[i], g.policy)
		}
		approx(t, g.policy+" energy", week.TotalEnergyMJ[g.policy], g.energyMJ)
		approx(t, g.policy+" mean active", week.MeanActive[g.policy], g.meanActive)
		approx(t, g.policy+" planned GHz", week.PlannedFreqGHz[g.policy], g.freqGHz)
		if week.TotalViol[g.policy] != g.violations {
			t.Errorf("%s violations = %d, want %d (golden)", g.policy, week.TotalViol[g.policy], g.violations)
		}
	}

	// Series spot checks (first slots of Figs. 4 and 5, slot energies
	// of Fig. 6) so per-slot drift can't hide behind intact totals.
	if got := week.Active["EPACT"][:3]; got[0] != 11 || got[1] != 10 || got[2] != 10 {
		t.Errorf("EPACT active[0:3] = %v, want [11 10 10] (golden)", got)
	}
	if got := week.Violations["COAT"][:3]; got[0] != 0 || got[1] != 8 || got[2] != 34 {
		t.Errorf("COAT violations[0:3] = %v, want [0 8 34] (golden)", got)
	}
	approx(t, "EPACT energy[0]", week.EnergyMJ["EPACT"][0], 2.476337657)
	approx(t, "COAT energy[47]", week.EnergyMJ["COAT"][47], 3.890229954)
}

func TestGoldenSummary(t *testing.T) {
	week, err := Fig4to6(goldenWeekConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := week.Summary
	// These mirror the paper's Section VI-C claims: ~37% fewer
	// servers under COAT, up to ~45% best-slot saving for EPACT.
	approx(t, "COAT server reduction %", s.COATServerReductionPct, 36.645962733)
	approx(t, "best slot saving %", s.BestSlotSavingVsCOATPct, 44.783169930)
	approx(t, "weekly saving vs COAT %", s.WeeklySavingVsCOATPct, 39.015705370)
	approx(t, "weekly saving vs COAT-OPT %", s.WeeklySavingVsCOATOPTPct, -0.457926586)
	approx(t, "violation ratio", s.ViolationRatioCOAT, 960)
}

// goldenExtConfig is the pinned extension scenario: 80 VMs over 1
// evaluated day with oracle predictions.
func goldenExtConfig() DCConfig {
	cfg := DefaultDCConfig()
	cfg.VMs = 80
	cfg.EvalDays = 1
	cfg.UseARIMA = false
	return cfg
}

func TestGoldenPolicyZoo(t *testing.T) {
	zoo, err := PolicyZoo(goldenExtConfig(), dcsim.DefaultTransitions())
	if err != nil {
		t.Fatal(err)
	}
	golden := []struct {
		policy     string
		energyMJ   float64
		migrations int
		transMJ    float64
	}{
		{"EPACT", 31.330268555, 1274, 0.067233180},
		{"COAT", 53.664288006, 575, 0.021107987},
		{"COAT-OPT", 32.211140477, 831, 0.031156449},
		{"FFD", 46.617459011, 573, 0.021107574},
		{"Verma-binary", 53.664288366, 574, 0.021108347},
		{"load-balance", 33.814495423, 1352, 0.053247252},
	}
	if len(zoo) != len(golden) {
		t.Fatalf("zoo has %d rows, want %d", len(zoo), len(golden))
	}
	for i, g := range golden {
		r := zoo[i]
		if r.Scenario.Policy != g.policy {
			t.Fatalf("row %d policy = %s, want %s", i, r.Scenario.Policy, g.policy)
		}
		approx(t, g.policy+" energy", r.TotalEnergyMJ, g.energyMJ)
		approx(t, g.policy+" transition MJ", r.TransitionMJ, g.transMJ)
		if r.Migrations != g.migrations {
			t.Errorf("%s migrations = %d, want %d (golden)", g.policy, r.Migrations, g.migrations)
		}
	}
}

func TestGoldenChurnSensitivity(t *testing.T) {
	rows, err := ChurnSensitivity(goldenExtConfig())
	if err != nil {
		t.Fatal(err)
	}
	golden := []struct {
		frac     float64
		affected int
		epactMJ  float64
		savePct  float64
	}{
		{0, 0, 31.263035376, 41.720391363},
		{0.25, 38, 23.376708853, 43.236461687},
		{0.5, 63, 18.570911707, 41.941447561},
	}
	if len(rows) != len(golden) {
		t.Fatalf("churn has %d rows, want %d", len(rows), len(golden))
	}
	for i, g := range golden {
		r := rows[i]
		if r.ChurnFraction != g.frac || r.AffectedVMs != g.affected {
			t.Errorf("row %d = (%.2f, %d VMs), want (%.2f, %d)", i, r.ChurnFraction, r.AffectedVMs, g.frac, g.affected)
		}
		approx(t, "churn EPACT energy", r.EPACTEnergyMJ, g.epactMJ)
		approx(t, "churn saving", r.SavingPct, g.savePct)
	}
}

func TestGoldenAblationForecast(t *testing.T) {
	rows, err := AblationForecast(goldenExtConfig())
	if err != nil {
		t.Fatal(err)
	}
	golden := []struct {
		predictor           string
		epactViol, coatViol int
		epactMJ             float64
	}{
		{"oracle", 0, 0, 31.263035376},
		{"ARIMA(2,0,1)s288", 0, 338, 31.994906904},
		{"seasonal-naive(288)", 0, 344, 31.743071073},
		{"last-value", 98, 294, 34.030879425},
	}
	if len(rows) != len(golden) {
		t.Fatalf("ablation has %d rows, want %d", len(rows), len(golden))
	}
	for i, g := range golden {
		r := rows[i]
		if r.Predictor != g.predictor {
			t.Fatalf("row %d predictor = %s, want %s", i, r.Predictor, g.predictor)
		}
		if r.EPACTViol != g.epactViol || r.COATViol != g.coatViol {
			t.Errorf("%s violations = (%d, %d), want (%d, %d)", g.predictor, r.EPACTViol, r.COATViol, g.epactViol, g.coatViol)
		}
		approx(t, g.predictor+" EPACT energy", r.EPACTEnergyMJ, g.epactMJ)
	}
}

func TestGoldenFig7(t *testing.T) {
	res, err := Fig7(goldenExtConfig())
	if err != nil {
		t.Fatal(err)
	}
	golden := []struct {
		staticW, epactMJ, savePct, freqGHz float64
	}{
		{5, 27.033898325, 46.364696999, 1.566666667},
		{15, 31.263035376, 41.720391363, 1.916666667},
		{25, 35.909948101, 36.870709252, 1.975000000},
		{35, 40.226103080, 33.093853208, 2.075000000},
		{45, 44.303854654, 30.079496261, 2.116666667},
	}
	if len(res.Rows) != len(golden) {
		t.Fatalf("fig7 has %d rows, want %d", len(res.Rows), len(golden))
	}
	for i, g := range golden {
		r := res.Rows[i]
		if r.StaticW != g.staticW {
			t.Fatalf("row %d static = %g, want %g", i, r.StaticW, g.staticW)
		}
		approx(t, "fig7 EPACT energy", r.EPACTEnergyMJ, g.epactMJ)
		approx(t, "fig7 saving", r.SavingPct, g.savePct)
		approx(t, "fig7 planned GHz", r.EPACTPlannedFreqGHz, g.freqGHz)
	}
}

// TestGoldenRunsAreDeterministic guards the premise the golden values
// rest on: two identical runs produce byte-identical CSV output.
func TestGoldenRunsAreDeterministic(t *testing.T) {
	cfg := goldenExtConfig()
	a, err := Fig4to6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig4to6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.CSV() != b.CSV() {
		t.Error("two identical Fig4to6 runs produced different CSV output")
	}
}
