package experiments

import (
	"repro/internal/dcsim"
	"repro/internal/sweep"
)

// Extension experiments beyond the paper's evaluation: the full policy
// zoo (including the Verma binary baseline and load balancing the
// paper only mentions), churn sensitivity, and transition-cost
// accounting. All of them are thin adapters over the sweep engine,
// which shares the trace and prediction set across the runs.

// PolicyZooRow is one policy's week under identical conditions.
type PolicyZooRow struct {
	Policy       string
	EnergyMJ     float64
	Violations   int
	MeanActive   float64
	Migrations   int
	TransitionMJ float64
}

// PolicyZoo runs every implemented policy — EPACT, COAT, COAT-OPT,
// FFD, Verma-binary and load-balance — on the same trace, predictions
// and transition model, extending the paper's three-way comparison.
func PolicyZoo(cfg DCConfig, transitions dcsim.TransitionModel) ([]PolicyZooRow, error) {
	g := weekGrid(cfg, sweep.PolicyNames())
	g.Transitions = []sweep.TransitionSpec{transitionSpec(transitions)}
	runs, err := runGrid(g)
	if err != nil {
		return nil, err
	}
	rows := make([]PolicyZooRow, 0, len(runs))
	for i := range runs {
		r := &runs[i]
		rows = append(rows, PolicyZooRow{
			Policy:       r.Scenario.Policy,
			EnergyMJ:     r.TotalEnergyMJ,
			Violations:   r.Violations,
			MeanActive:   r.MeanActive,
			Migrations:   r.Migrations,
			TransitionMJ: r.TransitionMJ,
		})
	}
	return rows, nil
}

// transitionSpec maps a concrete transition model onto the sweep
// engine's named specs, preserving the registry names where possible
// so scenario IDs stay readable.
func transitionSpec(m dcsim.TransitionModel) sweep.TransitionSpec {
	switch m {
	case dcsim.ZeroTransitions():
		return sweep.TransitionSpec{Name: "none"}
	case dcsim.DefaultTransitions():
		return sweep.TransitionSpec{Name: "default"}
	default:
		return sweep.TransitionSpec{Name: "custom", Model: &m}
	}
}

// ChurnRow reports one churn level's effect on the EPACT-vs-COAT gap.
type ChurnRow struct {
	// ChurnFraction is the arrival/departure share applied.
	ChurnFraction float64

	// AffectedVMs is how many VMs the churn pass touched.
	AffectedVMs int

	// EPACTEnergyMJ, COATEnergyMJ and SavingPct as in Fig. 7.
	EPACTEnergyMJ, COATEnergyMJ, SavingPct float64
}

// ChurnSensitivity re-runs the EPACT-vs-COAT comparison under
// increasing VM churn (the Google traces' population dynamics the
// base experiment idealises away). Predictions use the oracle so the
// comparison isolates allocation behaviour under churn.
func ChurnSensitivity(cfg DCConfig) ([]ChurnRow, error) {
	g := weekGrid(cfg, []string{"EPACT", "COAT"})
	g.Predictors = []string{"oracle"}
	g.ChurnFractions = []float64{0, 0.25, 0.5}
	runs, err := runGrid(g)
	if err != nil {
		return nil, err
	}
	// Expansion order keeps policies innermost: (EPACT, COAT) pairs
	// per churn level.
	var rows []ChurnRow
	for i := 0; i+1 < len(runs); i += 2 {
		epact, coat := &runs[i], &runs[i+1]
		rows = append(rows, ChurnRow{
			ChurnFraction: epact.Scenario.ChurnFraction,
			AffectedVMs:   epact.ChurnAffectedVMs,
			EPACTEnergyMJ: epact.TotalEnergyMJ,
			COATEnergyMJ:  coat.TotalEnergyMJ,
			SavingPct:     savingPct(epact.TotalEnergyMJ, coat.TotalEnergyMJ),
		})
	}
	return rows, nil
}
