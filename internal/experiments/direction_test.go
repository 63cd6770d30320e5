package experiments

import (
	"testing"

	"repro/internal/sweep"
)

// TestPaperAnswerHoldsAcrossSeeds pins the direction of the paper's
// headline comparisons, not their numbers, on ten trace seeds (120
// VMs, a 120-server pool, 2 history + 2 evaluated days) × predictors
// {oracle, arima} × power models {ntc, tdp}:
//
//   - under ntc, EPACT spends less energy than COAT and FFD;
//   - under arima, EPACT has fewer SLA violations than COAT and FFD;
//   - under tdp, COAT and FFD spend less energy than EPACT:
//     consolidating wins on conventional servers, the paper's "or not".
//
// All 120 comparisons hold on seeds 1-10. Typical margins: EPACT
// ≈ 90 MJ vs COAT ≈ 152 and FFD ≈ 120-144 under ntc; 0 violations vs
// 280-582 under arima; ≈ 73 MJ vs ≈ 53 under tdp. A seed that flips
// is a finding to record (here and in ROADMAP), not a seed to drop.
func TestPaperAnswerHoldsAcrossSeeds(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	res, err := sweep.Run(sweep.Grid{
		Policies:    []string{"EPACT", "COAT", "FFD"},
		VMs:         []int{120},
		MaxServers:  []int{120},
		HistoryDays: 2,
		EvalDays:    2,
		Seeds:       seeds,
		Predictors:  []string{"oracle", "arima"},
		PowerModels: []string{"ntc", "tdp"},
	}, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	type cell struct {
		seed                  int64
		predictor, powerModel string
	}
	rows := map[cell]map[string]sweep.RunResult{}
	for _, r := range res.Runs {
		if r.Err != "" {
			t.Fatalf("%+v: %s", r.Scenario, r.Err)
		}
		c := cell{r.Scenario.Seed, r.Scenario.Predictor, r.Scenario.PowerModel}
		if rows[c] == nil {
			rows[c] = map[string]sweep.RunResult{}
		}
		rows[c][r.Scenario.Policy] = r
	}
	if len(rows) != len(seeds)*2*2 {
		t.Fatalf("%d (seed, predictor, power model) cells, want %d", len(rows), len(seeds)*2*2)
	}
	compared := 0
	for c, by := range rows {
		epact := by["EPACT"]
		for _, other := range []sweep.RunResult{by["COAT"], by["FFD"]} {
			name := other.Scenario.Policy
			switch c.powerModel {
			case "ntc":
				if !(epact.TotalEnergyMJ < other.TotalEnergyMJ) {
					t.Errorf("%+v: EPACT %.1f MJ, %s %.1f MJ; want EPACT lower under ntc",
						c, epact.TotalEnergyMJ, name, other.TotalEnergyMJ)
				}
			case "tdp":
				if !(other.TotalEnergyMJ < epact.TotalEnergyMJ) {
					t.Errorf("%+v: %s %.1f MJ, EPACT %.1f MJ; want consolidation lower under tdp",
						c, name, other.TotalEnergyMJ, epact.TotalEnergyMJ)
				}
			}
			compared++
			if c.predictor == "arima" {
				if !(epact.Violations < other.Violations) {
					t.Errorf("%+v: EPACT %d violations, %s %d; want EPACT fewer under arima",
						c, epact.Violations, name, other.Violations)
				}
				compared++
			}
		}
	}
	if compared != 120 {
		t.Errorf("%d comparisons, want 120", compared)
	}
}
