package experiments

import (
	"math"
	"testing"
)

// fleetTestConfig is the reduced-scale fleet week: the same shape the
// CLI golden test pins (48 VMs, 1 evaluated day, oracle predictions,
// triad fleet), so the two goldens cross-check each other.
func fleetTestConfig() FleetWeekConfig {
	return FleetWeekConfig{
		DC: DCConfig{
			VMs:        48,
			EvalDays:   1,
			Seed:       2018,
			UseARIMA:   false,
			MaxServers: 48,
		},
	}
}

func TestFleetWeekGolden(t *testing.T) {
	rows, err := FleetWeek(fleetTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("got %d rows, want 8 (4 dispatchers × 2 policies)", len(rows))
	}

	// Golden fleet energies (MJ), pinned alongside the paper-figure
	// goldens; they match cmd/ntc-sweep's fleet golden rows. On the
	// legacy triad every DC carries the default grid intensity, so
	// carbon-greedy's PUE×intensity ranking degenerates to a PUE
	// ranking that picks the same core-first fill as
	// greedy-proportional — identical energies by construction.
	want := []struct {
		dispatcher, policy string
		energyMJ           float64
	}{
		{"uniform", "EPACT", 47.798861},
		{"uniform", "COAT", 68.204271},
		{"greedy-proportional", "EPACT", 22.115386},
		{"greedy-proportional", "COAT", 38.874682},
		{"follow-the-load", "EPACT", 79.073546},
		{"follow-the-load", "COAT", 93.818028},
		{"carbon-greedy", "EPACT", 22.115386},
		{"carbon-greedy", "COAT", 38.874682},
	}
	byKey := map[string]FleetWeekRow{}
	for _, r := range rows {
		byKey[r.Dispatcher+"/"+r.Scenario.Policy] = r
	}
	for _, w := range want {
		r, ok := byKey[w.dispatcher+"/"+w.policy]
		if !ok {
			t.Errorf("missing row %s/%s", w.dispatcher, w.policy)
			continue
		}
		if math.Abs(r.TotalEnergyMJ-w.energyMJ) > 1e-4 {
			t.Errorf("%s/%s energy = %.6f MJ, want %.6f", w.dispatcher, w.policy, r.TotalEnergyMJ, w.energyMJ)
		}
		if len(r.PerDC) != 3 {
			t.Errorf("%s/%s has %d per-DC rows, want 3", w.dispatcher, w.policy, len(r.PerDC))
		}
		if r.EPScore <= 0 || r.EPScore > 1 {
			t.Errorf("%s/%s EP score %v outside (0,1]", w.dispatcher, w.policy, r.EPScore)
		}
	}

	// The fleet-scale headline: consolidating the fleet onto its most
	// energy-proportional datacenter beats spreading uniformly, for
	// both per-DC policies.
	for _, pol := range []string{"EPACT", "COAT"} {
		greedy := byKey["greedy-proportional/"+pol].TotalEnergyMJ
		uniform := byKey["uniform/"+pol].TotalEnergyMJ
		if greedy >= uniform {
			t.Errorf("%s: greedy-proportional (%.1f MJ) should beat uniform (%.1f MJ) on the triad",
				pol, greedy, uniform)
		}
	}
}

// TestFleetWeekRebalanceGolden pins the tentpole's experiment-level
// headline: the triad dispatched uniform but epoch-rebalanced onto
// its energy-proportional core site (greedy-proportional every 4
// slots) roughly halves fleet energy versus the static dispatch it
// started from, paying for the moves with cross-DC migrations whose
// downtime shows up raw and latency-weighted. The golden energies
// match the CLI rebalance golden rows, so the two pins cross-check.
func TestFleetWeekRebalanceGolden(t *testing.T) {
	cfg := fleetTestConfig()
	cfg.Dispatchers = []string{"uniform"}
	cfg.Rebalances = []string{"off", "epoch:4@greedy-proportional"}
	rows, err := FleetWeek(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4 (1 dispatcher × 2 rebalances × 2 policies)", len(rows))
	}

	want := []struct {
		rebalance, policy string
		energyMJ          float64
		crossDC           int
		latencyViol       float64
	}{
		{"off", "EPACT", 47.798861, 0, 0},
		{"off", "COAT", 68.204271, 0, 0},
		{"epoch:4@greedy-proportional", "EPACT", 24.811255, 23, 92},
		{"epoch:4@greedy-proportional", "COAT", 42.170355, 23, 92},
	}
	byKey := map[string]FleetWeekRow{}
	for _, r := range rows {
		if r.Dispatcher != "uniform" {
			t.Errorf("unexpected dispatcher %q", r.Dispatcher)
		}
		byKey[r.Scenario.Rebalance+"/"+r.Scenario.Policy] = r
	}
	for _, w := range want {
		r, ok := byKey[w.rebalance+"/"+w.policy]
		if !ok {
			t.Errorf("missing row %s/%s", w.rebalance, w.policy)
			continue
		}
		if math.Abs(r.TotalEnergyMJ-w.energyMJ) > 1e-4 {
			t.Errorf("%s/%s energy = %.6f MJ, want %.6f (golden)", w.rebalance, w.policy, r.TotalEnergyMJ, w.energyMJ)
		}
		if r.CrossDCMigrations != w.crossDC {
			t.Errorf("%s/%s cross-DC migrations = %d, want %d (golden)",
				w.rebalance, w.policy, r.CrossDCMigrations, w.crossDC)
		}
		if math.Abs(r.LatencyWeightedViol-w.latencyViol) > 1e-9 {
			t.Errorf("%s/%s latency-weighted viol = %v, want %v (golden)",
				w.rebalance, w.policy, r.LatencyWeightedViol, w.latencyViol)
		}
	}

	// The acceptance headline: epoch rebalancing with
	// greedy-proportional lowers fleet energy vs the static dispatch,
	// for both per-DC policies.
	for _, pol := range []string{"EPACT", "COAT"} {
		static := byKey["off/"+pol].TotalEnergyMJ
		reb := byKey["epoch:4@greedy-proportional/"+pol].TotalEnergyMJ
		if reb >= static {
			t.Errorf("%s: epoch rebalancing (%.1f MJ) should beat static dispatch (%.1f MJ)",
				pol, reb, static)
		}
	}
}

func TestFleetWeekHonoursExplicitAxes(t *testing.T) {
	cfg := fleetTestConfig()
	cfg.Dispatchers = []string{"uniform"}
	cfg.Policies = []string{"FFD"}
	rows, err := FleetWeek(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Dispatcher != "uniform" || rows[0].Scenario.Policy != "FFD" {
		t.Fatalf("rows = %+v, want one uniform/FFD row", rows)
	}

	cfg.Fleet = "bogus"
	if _, err := FleetWeek(cfg); err == nil {
		t.Error("unknown fleet ref did not error")
	}
}
