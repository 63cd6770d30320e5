package experiments

import (
	"repro/internal/dcsim"
	"repro/internal/sweep"
)

// DCConfig parameterises the data-center experiments (Figs. 4-7).
type DCConfig struct {
	// VMs and EvalDays set the scale; the paper uses 600 VMs over one
	// week (7 evaluated days after 7 history days).
	VMs      int
	EvalDays int

	// Seed drives the trace generator.
	Seed int64

	// UseARIMA selects the paper's predictor; false uses the oracle
	// (perfect prediction), isolating allocation effects.
	UseARIMA bool

	// MaxServers is the physical pool (600 in the paper).
	MaxServers int

	// StaticPowerW overrides the server's static platform power
	// (motherboard/fan/disk); 0 keeps the default 15 W. Fig. 7 sweeps
	// this between 5 and 45 W.
	StaticPowerW float64

	// TraceSpec selects the trace-ingestion backend ("synthetic",
	// "csv:path", "cluster:path"; empty = synthetic). File-backed
	// runs need at least VMs virtual machines and 7+EvalDays days in
	// the file; Seed then only drives churn-style randomness.
	TraceSpec string
}

// DefaultDCConfig mirrors the paper's setup. The trace generator's
// load levels are raised (base 55-90%) so the aggregate demand puts
// the active-server counts in the range of the paper's Fig. 5.
func DefaultDCConfig() DCConfig {
	return DCConfig{
		VMs:        600,
		EvalDays:   7,
		Seed:       2018,
		UseARIMA:   true,
		MaxServers: 600,
	}
}

// weekGrid translates a DCConfig into a single-point sweep grid over
// the given policies; the figure adapters specialise one axis each.
func weekGrid(cfg DCConfig, policies []string) sweep.Grid {
	pred := "oracle"
	if cfg.UseARIMA {
		pred = "arima"
	}
	g := sweep.Grid{
		Policies:     policies,
		VMs:          []int{cfg.VMs},
		MaxServers:   []int{cfg.MaxServers},
		HistoryDays:  7,
		EvalDays:     cfg.EvalDays,
		Seeds:        []int64{cfg.Seed},
		StaticPowerW: []float64{cfg.StaticPowerW},
		Predictors:   []string{pred},
	}
	if cfg.TraceSpec != "" {
		g.Traces = []string{cfg.TraceSpec}
	}
	return g
}

// runGrid executes a grid and returns its runs, surfacing the first
// scenario failure as an error.
func runGrid(g sweep.Grid) ([]sweep.RunResult, error) {
	res, err := sweep.Run(g, sweep.Options{})
	if err != nil {
		return nil, err
	}
	if err := res.Failed(); err != nil {
		return nil, err
	}
	return res.Runs, nil
}

// DCWeekResult carries the week-long comparison behind Figs. 4-6.
type DCWeekResult struct {
	// Policies in presentation order (EPACT, COAT, COAT-OPT).
	Policies []string

	// Per-slot series per policy.
	Violations map[string][]int     // Fig. 4
	Active     map[string][]int     // Fig. 5
	EnergyMJ   map[string][]float64 // Fig. 6

	// Weekly aggregates per policy.
	TotalEnergyMJ  map[string]float64
	TotalViol      map[string]int
	MeanActive     map[string]float64
	PlannedFreqGHz map[string]float64

	// Summary holds the paper's headline comparisons.
	Summary DCSummary
}

// DCSummary condenses the paper's Section VI-C claims.
type DCSummary struct {
	// COATServerReductionPct: how many fewer servers COAT activates
	// than EPACT on average (paper: 37%).
	COATServerReductionPct float64

	// BestSlotSavingVsCOATPct is EPACT's best per-slot energy saving
	// vs COAT (paper: up to 45%).
	BestSlotSavingVsCOATPct float64

	// WeeklySavingVsCOATPct and WeeklySavingVsCOATOPTPct are EPACT's
	// total-energy savings over the horizon (paper: 45% and 10% in
	// the best and worst case).
	WeeklySavingVsCOATPct    float64
	WeeklySavingVsCOATOPTPct float64

	// ViolationRatioCOAT is COAT's violation count over EPACT's
	// (EPACT's near-zero count is floored at 1 to keep it finite).
	ViolationRatioCOAT float64
}

// Fig4to6 runs the week-long data-center comparison producing the
// violation (Fig. 4), active-server (Fig. 5) and energy (Fig. 6)
// series for EPACT, COAT and COAT-OPT on the same trace and the same
// predictions. It is a thin adapter over the sweep engine: the trace
// and prediction set are built once by the engine's loader and shared
// across the three policy runs.
func Fig4to6(cfg DCConfig) (*DCWeekResult, error) {
	runs, err := runGrid(weekGrid(cfg, []string{"EPACT", "COAT", "COAT-OPT"}))
	if err != nil {
		return nil, err
	}
	sims := make([]*dcsim.Result, len(runs))
	for i := range runs {
		sims[i] = runs[i].Run
	}
	return weekFromResults(sims), nil
}

// weekFromResults folds per-policy simulation runs into the week
// comparison (series, aggregates, headline summary).
func weekFromResults(sims []*dcsim.Result) *DCWeekResult {
	res := &DCWeekResult{
		Violations:     map[string][]int{},
		Active:         map[string][]int{},
		EnergyMJ:       map[string][]float64{},
		TotalEnergyMJ:  map[string]float64{},
		TotalViol:      map[string]int{},
		MeanActive:     map[string]float64{},
		PlannedFreqGHz: map[string]float64{},
	}
	for _, run := range sims {
		name := run.Policy
		res.Policies = append(res.Policies, name)
		res.Violations[name] = run.ViolationsPerSlot()
		res.Active[name] = run.ActiveServersPerSlot()
		res.EnergyMJ[name] = run.EnergyPerSlotMJ()
		res.TotalEnergyMJ[name] = run.TotalEnergy.MJ()
		res.TotalViol[name] = run.TotalViol
		res.MeanActive[name] = run.MeanActive
		res.PlannedFreqGHz[name] = run.MeanPlannedFreqGHz()
	}
	res.Summary = summarise(res)
	return res
}

// savingPct is EPACT's energy saving over a baseline in percent (the
// paper's headline metric), 0 when the baseline is unreported.
func savingPct(epactMJ, baselineMJ float64) float64 {
	if baselineMJ <= 0 {
		return 0
	}
	return 100 * (1 - epactMJ/baselineMJ)
}

// summarise computes the headline comparisons.
func summarise(r *DCWeekResult) DCSummary {
	var s DCSummary
	epact, coat, coatOpt := "EPACT", "COAT", "COAT-OPT"

	if me := r.MeanActive[epact]; me > 0 {
		s.COATServerReductionPct = 100 * (1 - r.MeanActive[coat]/me)
	}
	s.WeeklySavingVsCOATPct = savingPct(r.TotalEnergyMJ[epact], r.TotalEnergyMJ[coat])
	s.WeeklySavingVsCOATOPTPct = savingPct(r.TotalEnergyMJ[epact], r.TotalEnergyMJ[coatOpt])
	best := 0.0
	ce := r.EnergyMJ[coat]
	ee := r.EnergyMJ[epact]
	for i := range ce {
		if i < len(ee) && ce[i] > 0 {
			if saving := 100 * (1 - ee[i]/ce[i]); saving > best {
				best = saving
			}
		}
	}
	s.BestSlotSavingVsCOATPct = best

	epactViol := r.TotalViol[epact]
	if epactViol < 1 {
		epactViol = 1
	}
	s.ViolationRatioCOAT = float64(r.TotalViol[coat]) / float64(epactViol)
	return s
}
