package dcsim

import (
	"testing"

	"repro/internal/alloc"
	"repro/internal/units"
)

func TestZeroTransitionsMatchPaperModel(t *testing.T) {
	tr := testTrace(t, 50)
	ps := oracle(t, tr)
	spec := alloc.ServerSpec{Cores: 16, MemContainers: 16, FMax: units.GHz(3.1), FMin: units.GHz(0.1)}

	base := testConfig(t, tr, alloc.NewCOAT(spec), ps)
	resZero, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if resZero.TotalTransitionEnergy != 0 || resZero.TotalMigrations != 0 {
		t.Errorf("zero model recorded transitions: %v / %d",
			resZero.TotalTransitionEnergy, resZero.TotalMigrations)
	}
}

func TestTransitionCostsIncreaseEnergy(t *testing.T) {
	tr := testTrace(t, 50)
	ps := oracle(t, tr)
	spec := alloc.ServerSpec{Cores: 16, MemContainers: 16, FMax: units.GHz(3.1), FMin: units.GHz(0.1)}

	base := testConfig(t, tr, alloc.NewCOAT(spec), ps)
	resZero, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	withCosts := base
	withCosts.Transitions = DefaultTransitions()
	resCosts, err := Run(withCosts)
	if err != nil {
		t.Fatal(err)
	}
	if resCosts.TotalEnergy <= resZero.TotalEnergy {
		t.Errorf("transition costs did not increase energy: %v vs %v",
			resCosts.TotalEnergy, resZero.TotalEnergy)
	}
	if resCosts.TotalTransitionEnergy <= 0 {
		t.Error("no transition energy recorded")
	}
	// Re-allocating every hour with fresh FFD orders must migrate at
	// least some VMs at some point.
	if resCosts.TotalMigrations == 0 {
		t.Error("no migrations recorded across 48 hourly re-allocations")
	}
	// The paper-level conclusion survives realistic transition costs:
	// they are small next to server energy (< 10% here).
	if frac := float64(resCosts.TotalTransitionEnergy) / float64(resCosts.TotalEnergy); frac > 0.10 {
		t.Errorf("transition energy fraction = %.2f, want < 0.10", frac)
	}
}

func TestSlotTransitionEnergyInitialPlacement(t *testing.T) {
	m := DefaultTransitions()
	next := &alloc.Assignment{Servers: []*alloc.ServerPlan{
		{VMs: []int{0}}, {VMs: []int{1}}, {},
	}, VMServer: []int{0, 1}}
	e, stats := m.slotTransitionEnergy(new(alloc.MigrationMatcher), nil, next, nil, 0)
	// Two active servers power on; no migrations on first placement.
	if want := units.Energy(2 * 5 * units.Kilojoule); e != want {
		t.Errorf("initial energy = %v, want %v", e, want)
	}
	if stats.Migrations != 0 {
		t.Errorf("initial migrations = %d, want 0", stats.Migrations)
	}
}

func TestSlotTransitionEnergyScaleUpAndDown(t *testing.T) {
	m := DefaultTransitions()
	one := &alloc.Assignment{Servers: []*alloc.ServerPlan{{VMs: []int{0, 1}}},
		VMServer: []int{0, 0}}
	two := &alloc.Assignment{Servers: []*alloc.ServerPlan{{VMs: []int{0}}, {VMs: []int{1}}},
		VMServer: []int{0, 1}}

	up, _ := m.slotTransitionEnergy(new(alloc.MigrationMatcher), one, two, []float64{1e9, 1e9}, 0)
	if float64(up) < 5000 {
		t.Errorf("scale-up energy = %v, want >= one boot (5 kJ)", up)
	}
	down, _ := m.slotTransitionEnergy(new(alloc.MigrationMatcher), two, one, []float64{1e9, 1e9}, 0)
	if float64(down) < 1000 {
		t.Errorf("scale-down energy = %v, want >= one shutdown (1 kJ)", down)
	}
	if up <= down {
		t.Error("boot should cost more than shutdown here (same migration part)")
	}
}
