package experiments

import (
	"testing"

	"repro/internal/dcsim"
	"repro/internal/sweep"
)

func tinyDC() DCConfig {
	cfg := DefaultDCConfig()
	cfg.VMs = 80
	cfg.EvalDays = 1
	cfg.UseARIMA = false
	return cfg
}

func TestPolicyZooOrdering(t *testing.T) {
	rows, err := PolicyZoo(tinyDC(), dcsim.ZeroTransitions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6 policies", len(rows))
	}
	byName := map[string]sweep.RunResult{}
	for _, r := range rows {
		byName[r.Scenario.Policy] = r
	}
	epact := byName["EPACT"]
	coat := byName["COAT"]
	ffd := byName["FFD"]
	verma := byName["Verma-binary"]
	lb := byName["load-balance"]

	// EPACT beats every consolidation-at-FMax policy on energy.
	for _, other := range []sweep.RunResult{coat, ffd, verma} {
		if epact.TotalEnergyMJ >= other.TotalEnergyMJ {
			t.Errorf("EPACT %.1f MJ should beat %s %.1f MJ", epact.TotalEnergyMJ, other.Scenario.Policy, other.TotalEnergyMJ)
		}
	}
	// The correlation-blind baselines should not beat COAT on
	// violations (binary quantisation loses envelope information).
	if verma.Violations < coat.Violations/4 {
		t.Errorf("Verma violations %d unexpectedly far below COAT %d", verma.Violations, coat.Violations)
	}
	// Load balance spreads across its pool; its energy exceeds
	// EPACT's (it makes no frequency-aware decisions).
	if lb.TotalEnergyMJ <= epact.TotalEnergyMJ {
		t.Errorf("load-balance %.1f MJ should not beat EPACT %.1f MJ", lb.TotalEnergyMJ, epact.TotalEnergyMJ)
	}
}

func TestPolicyZooWithTransitions(t *testing.T) {
	rows, err := PolicyZoo(tinyDC(), dcsim.DefaultTransitions())
	if err != nil {
		t.Fatal(err)
	}
	anyMigrations := false
	for _, r := range rows {
		if r.TransitionMJ < 0 {
			t.Errorf("%s: negative transition energy", r.Scenario.Policy)
		}
		if r.Migrations > 0 {
			anyMigrations = true
		}
	}
	if !anyMigrations {
		t.Error("no policy recorded migrations under hourly re-allocation")
	}
}

func TestChurnSensitivity(t *testing.T) {
	rows, err := ChurnSensitivity(tinyDC())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	if rows[0].AffectedVMs != 0 {
		t.Errorf("zero churn affected %d VMs", rows[0].AffectedVMs)
	}
	if rows[2].AffectedVMs <= rows[1].AffectedVMs {
		t.Errorf("churn 0.5 affected %d VMs, not above churn 0.25's %d",
			rows[2].AffectedVMs, rows[1].AffectedVMs)
	}
	// EPACT's advantage survives churn (the paper's conclusion is not
	// an artefact of a static population).
	for _, r := range rows {
		if r.SavingPct < 20 {
			t.Errorf("churn %.2f: saving %.1f%%, want >= 20%%", r.ChurnFraction, r.SavingPct)
		}
	}
}
