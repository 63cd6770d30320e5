// Package sweep is the scenario-sweep engine of the data-center
// study: it expands a declarative grid (policy × pool size ×
// static-power × predictor × transition model × churn × seed × trace
// source × datacenter topology × cross-DC rebalance) into concrete
// scenarios, shares the expensive inputs (trace ingestion, prediction
// sets, fleet definitions) across scenarios through a keyed memoizing
// loader, and executes the runs on a bounded worker pool.
//
// Traces come from pluggable ingestion backends (internal/trace
// Source): the synthetic generator, CSV files in the native tracegen
// format, or real cluster dumps through the cluster adapter. The
// trace axis selects a backend per scenario with "backend:ref" specs
// (e.g. "csv:week.csv"); see docs/TRACES.md.
//
// The topology axis (internal/topology) selects the datacenter fleet
// a scenario runs on with "[dispatcher@]fleet" specs (e.g.
// "greedy-proportional@triad" or "uniform@fleet.json"); every
// scenario — including the default "single" topology — executes
// through the fleet runner, which dispatches the trace's VMs across
// the fleet's datacenters and reuses the dcsim simulator unchanged
// per DC. The rebalance axis ("off", "epoch:N[@dispatcher]") turns
// that one-shot dispatch into an epoch control loop: the fleet
// re-dispatches over observed load every N slots and pays for every
// cross-DC move (migration energy, downtime violation-samples,
// latency-weighted QoS). See docs/TOPOLOGY.md.
//
// Determinism is a design contract: every scenario derives all of its
// randomness from its own trace seed (churn uses seed+99, the
// convention the churn experiments established), no scenario reads
// another scenario's mutable state, and results are stored by
// expansion index — so the emitted CSV/JSON is byte-identical
// whatever the worker count or GOMAXPROCS. Execution metadata
// (worker count, wall-clock time, loader and cache statistics) is
// deliberately excluded from both serialisations, which is what lets
// the incremental result cache (internal/sweep/cache, Options.Cache)
// replay stored rows byte-for-byte: a fully cached re-run emits
// output identical to the uncached run while executing zero
// scenarios. See docs/ARCHITECTURE.md for the full invariants.
package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/alloc"
	"repro/internal/dcsim"
	"repro/internal/forecast"
	"repro/internal/power"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/units"
)

// Grid declares a scenario space as per-axis value lists. Empty axes
// fall back to the paper's defaults (see WithDefaults); the expansion
// is the cartesian product of all axes in a fixed order.
type Grid struct {
	// Policies are allocation-policy names; see PolicyNames.
	Policies []string `json:"policies,omitempty"`

	// VMs are trace sizes (the paper uses 600).
	VMs []int `json:"vms,omitempty"`

	// MaxServers are physical pool bounds. Empty mirrors the paper's
	// setup (pool = 600 whatever the VM count, as DefaultDCConfig
	// does) via the default below.
	MaxServers []int `json:"max_servers,omitempty"`

	// HistoryDays feed the predictor before the evaluation starts
	// (the paper uses one week).
	HistoryDays int `json:"history_days,omitempty"`

	// EvalDays is the simulated horizon after the history.
	EvalDays int `json:"eval_days,omitempty"`

	// Seeds drive the trace generator; one scenario set per seed.
	Seeds []int64 `json:"seeds,omitempty"`

	// StaticPowerW are per-server static-power overrides; 0 keeps the
	// model default (15 W). Fig. 7 sweeps 5-45 W.
	StaticPowerW []float64 `json:"static_power_w,omitempty"`

	// Predictors are forecast-variant names; see PredictorNames.
	Predictors []string `json:"predictors,omitempty"`

	// Transitions are transition-cost models; see TransitionNames.
	Transitions []TransitionSpec `json:"transitions,omitempty"`

	// ChurnFractions are VM arrival/departure shares applied to the
	// generated trace (0 = the paper's fixed population).
	ChurnFractions []float64 `json:"churn_fractions,omitempty"`

	// Traces are ingestion-backend specs ("synthetic", "csv:path",
	// "cluster:path"); see trace.ParseSourceSpec. Empty means the
	// synthetic generator. File-backed scenarios still take Seeds
	// (churn randomness) and VMs/EvalDays (the prefix of the file
	// they use); the file must hold at least that many VMs and
	// HistoryDays+EvalDays days.
	Traces []string `json:"traces,omitempty"`

	// Topologies are datacenter-fleet specs ("single",
	// "greedy-proportional@triad", "uniform@fleet.json"); see
	// topology.ParseSpec. Empty means the degenerate single-DC fleet,
	// which reproduces the plain simulation exactly. MaxServers is
	// the fleet-wide pool: relative fleets split it across their DCs
	// by share.
	Topologies []string `json:"topologies,omitempty"`

	// Rebalances are cross-DC rebalancing specs ("off",
	// "epoch:N[@dispatcher]"); see topology.ParseRebalanceSpec. Empty
	// means "off" — the static one-shot dispatch. Rebalancing only
	// affects multi-DC topologies; on "single" every spec is the
	// identity.
	Rebalances []string `json:"rebalances,omitempty"`

	// PowerModels select how server power is priced ("ntc", "tdp");
	// see power.ModelNames. Empty means "ntc" — each platform's native
	// FDSOI model, the bit-exact default. The axis changes energy (and
	// carbon) pricing only, never placement or violations.
	PowerModels []string `json:"power_models,omitempty"`
}

// Scenario is one fully concrete grid point.
type Scenario struct {
	Policy        string  `json:"policy"`
	VMs           int     `json:"vms"`
	MaxServers    int     `json:"max_servers"`
	HistoryDays   int     `json:"history_days"`
	EvalDays      int     `json:"eval_days"`
	Seed          int64   `json:"seed"`
	StaticPowerW  float64 `json:"static_power_w"`
	Predictor     string  `json:"predictor"`
	Transitions   string  `json:"transitions"`
	ChurnFraction float64 `json:"churn_fraction"`

	// TraceSpec is the ingestion-backend spec the trace came from
	// ("synthetic", "csv:path", ...).
	TraceSpec string `json:"trace"`

	// Topology is the datacenter-fleet spec the scenario ran on
	// ("single", "greedy-proportional@triad", ...).
	Topology string `json:"topology"`

	// Rebalance is the cross-DC rebalancing spec ("off",
	// "epoch:N[@dispatcher]").
	Rebalance string `json:"rebalance"`

	// PowerModel is the power-pricing model ("ntc", "tdp"; "" reads
	// as "ntc" everywhere).
	PowerModel string `json:"power_model,omitempty"`
}

// ID returns the scenario's canonical key, unique within a grid. It
// names the spec of every input, but not file contents — result
// caching combines it with the trace source's content fingerprint.
func (s Scenario) ID() string {
	return fmt.Sprintf("pol=%s vms=%d srv=%d hist=%d eval=%d seed=%d static=%g pred=%s trans=%s churn=%g trace=%s topo=%s reb=%s pm=%s",
		s.Policy, s.VMs, s.MaxServers, s.HistoryDays, s.EvalDays,
		s.Seed, s.StaticPowerW, s.Predictor, s.Transitions, s.ChurnFraction, s.TraceSpec, s.Topology, s.Rebalance, s.powerModel())
}

// powerModel is the scenario's effective power model: the empty axis
// value reads as "ntc" so legacy scenarios and defaulted ones share
// one identity.
func (s Scenario) powerModel() string {
	if s.PowerModel == "" {
		return "ntc"
	}
	return s.PowerModel
}

// TransitionSpec names a transition-cost model. A nil Model resolves
// Name through the registry ("none", "default"); a non-nil Model is
// used directly (Name is then just the scenario label). In JSON a
// bare string is accepted as shorthand for {"name": ...}.
type TransitionSpec struct {
	Name  string                 `json:"name"`
	Model *dcsim.TransitionModel `json:"model,omitempty"`
}

// UnmarshalJSON accepts either "default" or {"name": "...", ...}.
func (t *TransitionSpec) UnmarshalJSON(data []byte) error {
	if len(data) > 0 && data[0] == '"' {
		return json.Unmarshal(data, &t.Name)
	}
	type raw TransitionSpec
	return json.Unmarshal(data, (*raw)(t))
}

// MarshalJSON emits the bare-string form when only a name is set.
func (t TransitionSpec) MarshalJSON() ([]byte, error) {
	if t.Model == nil {
		return json.Marshal(t.Name)
	}
	type raw TransitionSpec
	return json.Marshal(raw(t))
}

// resolve returns the concrete transition model.
func (t TransitionSpec) resolve() (dcsim.TransitionModel, error) {
	if t.Model != nil {
		return *t.Model, nil
	}
	switch t.Name {
	case "", "none", "paper":
		return dcsim.ZeroTransitions(), nil
	case "default":
		return dcsim.DefaultTransitions(), nil
	default:
		return dcsim.TransitionModel{}, fmt.Errorf("sweep: unknown transition model %q (known: %s)",
			t.Name, strings.Join(TransitionNames(), ", "))
	}
}

// PolicyNames lists the allocation policies the engine can build, in
// presentation order (the paper's three first, then the extensions).
func PolicyNames() []string {
	return []string{"EPACT", "COAT", "COAT-OPT", "FFD", "Verma-binary", "load-balance"}
}

// newPolicy builds a fresh policy instance for one scenario. Policies
// are stateful across Allocate calls, so instances are never shared
// between concurrent runs. Any power.Model works: capacity and DVFS
// planning go through the interface.
func newPolicy(name string, model power.Model) (alloc.Policy, error) {
	spec := alloc.ServerSpec{
		Cores:         model.NumCores(),
		MemContainers: model.MemGB(),
		FMax:          model.FreqMax(),
		FMin:          model.FreqMin(),
	}
	switch name {
	case "EPACT":
		return &alloc.EPACT{Model: model}, nil
	case "COAT":
		return alloc.NewCOAT(spec), nil
	case "COAT-OPT":
		return alloc.NewCOATOPT(spec, model.OptimalFrequency()), nil
	case "FFD":
		return &alloc.FFD{}, nil
	case "Verma-binary":
		return alloc.NewVerma(), nil
	case "load-balance":
		return &alloc.LoadBalance{}, nil
	default:
		return nil, fmt.Errorf("sweep: unknown policy %q (known: %s)",
			name, strings.Join(PolicyNames(), ", "))
	}
}

// PredictorNames lists the forecast variants.
func PredictorNames() []string {
	return []string{"oracle", "arima", "seasonal-naive", "last-value"}
}

// newPredictor builds the forecast variant; nil means the oracle
// (dcsim.Predict copies the actual trace).
func newPredictor(name string) (forecast.Predictor, error) {
	switch name {
	case "", "oracle":
		return nil, nil
	case "arima":
		return &forecast.ARIMA{Cfg: forecast.DefaultConfig()}, nil
	case "seasonal-naive":
		return &forecast.SeasonalNaive{Period: trace.SamplesPerDay}, nil
	case "last-value":
		return forecast.LastValue{}, nil
	default:
		return nil, fmt.Errorf("sweep: unknown predictor %q (known: %s)",
			name, strings.Join(PredictorNames(), ", "))
	}
}

// TransitionNames lists the registered transition-cost models.
func TransitionNames() []string { return []string{"none", "default"} }

// DCTraceConfig is the canonical trace shape of the data-center
// experiments: the generator defaults with raised load levels and a
// deep day/night swing, putting aggregate demand — and hence
// active-server counts — in the range of the paper's Fig. 5.
func DCTraceConfig(seed int64, vms, days int) trace.Config {
	tc := trace.DefaultConfig(seed)
	tc.VMs = vms
	tc.Days = days
	tc.BaseMin = 35
	tc.BaseMax = 85
	tc.DiurnalAmplitude = 28
	return tc
}

// ServerModel builds the NTC server with an optional static-power
// override (motherboard/fan/disk; 0 keeps the default 15 W).
func ServerModel(staticW float64) *power.ServerModel {
	m := power.NTCServer()
	if staticW > 0 {
		m.Motherboard = units.Watts(staticW)
	}
	return m
}

// WithDefaults fills empty axes with the paper's setup: the three
// headline policies on one 600-VM/600-server week with ARIMA
// predictions, no transition costs and no churn, seed 2018.
func (g Grid) WithDefaults() Grid {
	if len(g.Policies) == 0 {
		g.Policies = []string{"EPACT", "COAT", "COAT-OPT"}
	}
	if len(g.VMs) == 0 {
		g.VMs = []int{600}
	}
	if len(g.MaxServers) == 0 {
		g.MaxServers = []int{600}
	}
	if g.HistoryDays == 0 {
		g.HistoryDays = 7
	}
	if g.EvalDays == 0 {
		g.EvalDays = 7
	}
	if len(g.Seeds) == 0 {
		g.Seeds = []int64{2018}
	}
	if len(g.StaticPowerW) == 0 {
		g.StaticPowerW = []float64{0}
	}
	if len(g.Predictors) == 0 {
		g.Predictors = []string{"arima"}
	}
	if len(g.Transitions) == 0 {
		g.Transitions = []TransitionSpec{{Name: "none"}}
	}
	if len(g.ChurnFractions) == 0 {
		g.ChurnFractions = []float64{0}
	}
	if len(g.Traces) == 0 {
		g.Traces = []string{"synthetic"}
	}
	if len(g.Topologies) == 0 {
		g.Topologies = []string{"single"}
	}
	if len(g.Rebalances) == 0 {
		g.Rebalances = []string{"off"}
	}
	if len(g.PowerModels) == 0 {
		g.PowerModels = []string{"ntc"}
	}
	return g
}

// Validate checks axis values without expanding.
func (g Grid) Validate() error {
	if g.HistoryDays <= 0 || g.EvalDays <= 0 {
		return fmt.Errorf("sweep: HistoryDays (%d) and EvalDays (%d) must be positive",
			g.HistoryDays, g.EvalDays)
	}
	for _, p := range g.Policies {
		if _, err := newPolicy(p, power.NTCServer()); err != nil {
			return err
		}
	}
	for _, p := range g.Predictors {
		if _, err := newPredictor(p); err != nil {
			return err
		}
	}
	// Transition names must be unique: scenarios reference their
	// model by name (see transitionFor), so a duplicate would
	// silently alias two models and break scenario-ID uniqueness.
	seenTrans := map[string]bool{}
	for _, t := range g.Transitions {
		if _, err := t.resolve(); err != nil {
			return err
		}
		if seenTrans[t.Name] {
			return fmt.Errorf("sweep: duplicate transition model name %q", t.Name)
		}
		seenTrans[t.Name] = true
	}
	for _, v := range g.VMs {
		if v <= 0 {
			return fmt.Errorf("sweep: VMs must be positive, got %d", v)
		}
	}
	for _, v := range g.MaxServers {
		// 0 is the documented "unbounded pool"; a negative value is a
		// typo that dcsim would silently treat as unbounded too.
		if v < 0 {
			return fmt.Errorf("sweep: MaxServers must be >= 0 (0 = unbounded), got %d", v)
		}
	}
	for _, c := range g.ChurnFractions {
		if c < 0 || c > 1 {
			return fmt.Errorf("sweep: churn fraction %g outside [0,1]", c)
		}
	}
	seenTrace := map[string]bool{}
	for _, spec := range g.Traces {
		if _, err := trace.ParseSourceSpec(spec); err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
		if seenTrace[spec] {
			return fmt.Errorf("sweep: duplicate trace spec %q", spec)
		}
		seenTrace[spec] = true
	}
	seenTopo := map[string]bool{}
	for _, spec := range g.Topologies {
		if _, err := topology.ParseSpec(spec); err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
		if seenTopo[spec] {
			return fmt.Errorf("sweep: duplicate topology spec %q", spec)
		}
		seenTopo[spec] = true
	}
	seenReb := map[string]bool{}
	for _, spec := range g.Rebalances {
		if _, err := topology.ParseRebalanceSpec(spec); err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
		if seenReb[spec] {
			return fmt.Errorf("sweep: duplicate rebalance spec %q", spec)
		}
		seenReb[spec] = true
	}
	seenPM := map[string]bool{}
	for _, pm := range g.PowerModels {
		if _, err := power.ResolveModel(pm, power.NTCServer()); err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
		if seenPM[pm] {
			return fmt.Errorf("sweep: duplicate power model %q", pm)
		}
		seenPM[pm] = true
	}
	return nil
}

// Expand applies defaults, validates, and returns the scenario list.
// The nesting order (trace, topology, rebalance, seed, VMs, pool,
// static power, predictor, transitions, churn, power model, policy)
// keeps policies adjacent — the order the figure adapters group rows
// in — and is part of the output contract. The trace axis is outermost because
// its inputs (file ingestion) are the most expensive to share;
// topology comes next so all of a fleet's scenarios reuse one trace
// and one prediction set, and rebalance right after it so a fleet's
// static and rebalanced rows sit side by side. Transitions and power
// model are the pricing-only axes: rows that differ in them alone
// form one placement group, which Run simulates once and reprices per
// row (see placement.go).
func Expand(g Grid) ([]Scenario, error) {
	g = g.WithDefaults()
	if err := g.Validate(); err != nil {
		return nil, err
	}
	var out []Scenario
	for _, spec := range g.Traces {
		for _, topo := range g.Topologies {
			for _, reb := range g.Rebalances {
				for _, seed := range g.Seeds {
					for _, vms := range g.VMs {
						for _, srv := range g.MaxServers {
							for _, static := range g.StaticPowerW {
								for _, pred := range g.Predictors {
									for _, tr := range g.Transitions {
										for _, churn := range g.ChurnFractions {
											for _, pm := range g.PowerModels {
												for _, pol := range g.Policies {
													out = append(out, Scenario{
														Policy:        pol,
														VMs:           vms,
														MaxServers:    srv,
														HistoryDays:   g.HistoryDays,
														EvalDays:      g.EvalDays,
														Seed:          seed,
														StaticPowerW:  static,
														Predictor:     pred,
														Transitions:   tr.Name,
														ChurnFraction: churn,
														TraceSpec:     spec,
														Topology:      topo,
														Rebalance:     reb,
														PowerModel:    pm,
													})
												}
											}
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return out, nil
}

// transitionFor resolves a scenario's transition model against the
// grid it was expanded from (custom models live in the grid's specs).
func (g Grid) transitionFor(name string) (dcsim.TransitionModel, error) {
	for _, t := range g.Transitions {
		if t.Name == name {
			return t.resolve()
		}
	}
	return TransitionSpec{Name: name}.resolve()
}

// ParseGridJSON decodes a grid from its JSON form, rejecting unknown
// fields so typos in hand-written grid files surface early.
func ParseGridJSON(data []byte) (Grid, error) {
	var g Grid
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&g); err != nil {
		return Grid{}, fmt.Errorf("sweep: parsing grid: %w", err)
	}
	return g, nil
}
