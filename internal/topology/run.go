package topology

import (
	"repro/internal/alloc"
	"repro/internal/dcsim"
	"repro/internal/power"
	"repro/internal/trace"
)

// Config parameterises one fleet run.
type Config struct {
	// Fleet is the datacenter composition; Run resolves it against
	// MaxServers (relative DCs become Share-sized pools).
	Fleet Fleet

	// Trace is the fleet-wide VM population the dispatcher partitions.
	Trace *trace.Trace

	// Predictions cover the whole trace (dcsim.Predict); each DC's
	// simulation sees the rows of its own VMs. Per-VM forecasts are
	// independent, so one shared prediction set serves every topology
	// and dispatcher of a sweep.
	Predictions *dcsim.PredictionSet

	// HistoryDays and EvalDays split the trace, as in dcsim.Config.
	HistoryDays, EvalDays int

	// MaxServers is the fleet-wide pool that sizes relative DCs
	// (Share fractions); DCs with absolute Servers keep them. 0 keeps
	// relative DCs unbounded.
	MaxServers int

	// StaticPowerW is the scenario's static-power override, inherited
	// by DCs without their own.
	StaticPowerW float64

	// PowerModel selects how server power is priced in every DC (see
	// power.ResolveModel): "" or "ntc" keeps each platform's native
	// FDSOI model — the bit-exact default — and "tdp" wraps it in the
	// TDP-interpolated model. Dispatch and allocation are unaffected:
	// the axis changes pricing, never placement.
	PowerModel string

	// NewPolicy builds a fresh allocation-policy instance for one DC.
	// Policies are stateful across slots, so instances are never
	// shared between datacenters.
	NewPolicy func(m power.Model) (alloc.Policy, error)

	// Transitions prices power-state changes and migrations, applied
	// identically in every DC. The rebalancer also prices each
	// cross-DC move through MigrationEnergyPerByte.
	Transitions dcsim.TransitionModel

	// Rebalance re-runs cross-DC dispatch every EverySlots slots over
	// the observed (history-so-far) load and migrates VMs between
	// datacenters (see RebalanceSpec). The zero value keeps the
	// static one-shot dispatch: the epoch loop's single-epoch case,
	// one epoch spanning the whole window. Single-DC fleets have
	// nothing to rebalance and always run as that one epoch —
	// `single` stays the bit-exact identity under any rebalance spec.
	Rebalance RebalanceSpec

	// Source, when non-nil, gates the fleet replay on data
	// availability: Stepper.Step refuses (with an error wrapping
	// dcsim.ErrAwaitingSamples, without advancing or poisoning) to
	// simulate an evaluation slot the source has not released. The
	// gate sits at the fleet level — epoch re-dispatch observes
	// ingested samples, so an epoch never opens before its boundary
	// slot is released. Each DC's dcsim stepper gets the source too,
	// only so that it offers no lookahead window over slots not yet
	// ingested. Run stops with that error at the first unreleased
	// slot; batch replays leave Source nil.
	Source dcsim.SlotSource
}

// DCRun is one datacenter's outcome within a fleet run.
type DCRun struct {
	// Spec is the resolved DC (absolute Servers, defaults filled).
	Spec DCSpec `json:"spec"`

	// VMs is how many VMs the dispatcher placed here.
	VMs int `json:"vms"`

	// EnergyMJ is the DC's facility energy: IT energy × PUE.
	EnergyMJ float64 `json:"energy_mj"`

	// ITEnergyMJ is the server-level energy before the PUE multiplier.
	ITEnergyMJ float64 `json:"it_energy_mj"`

	Violations int     `json:"violations"`
	MeanActive float64 `json:"mean_active"`
	PeakActive int     `json:"peak_active"`
	Migrations int     `json:"migrations"`

	// LatencyWeightedViol is the DC's violation count weighted by its
	// WAN distance (LatencyMs / WANLatencyRefMs): far-away placements
	// pay a QoS penalty that the raw count hides.
	LatencyWeightedViol float64 `json:"latency_weighted_viol"`

	// CrossDCMigrations counts the VMs the rebalancer moved INTO this
	// DC at epoch boundaries (0 under static dispatch).
	CrossDCMigrations int `json:"cross_dc_migrations"`

	// EPScore is the realized energy-proportionality of this DC's
	// facility-energy series (see Tally.EPScore).
	EPScore float64 `json:"ep_score"`

	// OperationalGCO2 is the DC's operational carbon: each slot's
	// facility energy (kWh) × the grid intensity at that hour of day,
	// in gCO2eq. EmbodiedGCO2 amortizes manufacturing carbon over the
	// DC's powered-on server-hours (see dcCarbonOf). Both are derived
	// from the energy and active-server series and never feed back
	// into allocation.
	OperationalGCO2 float64 `json:"operational_gco2"`
	EmbodiedGCO2    float64 `json:"embodied_gco2"`
}

// FleetResult aggregates a fleet run.
type FleetResult struct {
	// Fleet is the resolved fleet that ran.
	Fleet Fleet `json:"fleet"`

	// DCs are the per-datacenter outcomes, in fleet spec order.
	DCs []DCRun `json:"dcs"`

	// TotalEnergyMJ is the fleet's facility energy: the sum over DCs
	// of IT energy × PUE.
	TotalEnergyMJ float64 `json:"total_energy_mj"`

	// TransitionMJ is the PUE-weighted transition-energy share.
	TransitionMJ float64 `json:"transition_mj"`

	Violations int     `json:"violations"`
	Migrations int     `json:"migrations"`
	MeanActive float64 `json:"mean_active"`
	PeakActive int     `json:"peak_active"`
	Slots      int     `json:"slots"`

	// CrossDCMigrations counts VMs moved between datacenters by the
	// epoch rebalancer (0 under static dispatch). It is disjoint from
	// Migrations, which counts within-DC server moves.
	CrossDCMigrations int `json:"cross_dc_migrations"`

	// LatencyWeightedViol is the WAN-latency-weighted QoS metric: each
	// DC's violations (migration downtime included) scaled by
	// LatencyMs / WANLatencyRefMs and summed. On a single default-
	// latency DC it equals the raw count.
	LatencyWeightedViol float64 `json:"latency_weighted_viol"`

	// EPScore is the realized energy proportionality of the fleet's
	// per-slot facility-energy series (see Tally.EPScore).
	EPScore float64 `json:"ep_score"`

	// MeanPlannedFreqGHz is the VM-weighted mean of the per-DC
	// allocator cap frequencies.
	MeanPlannedFreqGHz float64 `json:"mean_planned_freq_ghz"`

	// OperationalGCO2 and EmbodiedGCO2 sum the per-DC carbon columns:
	// grid-intensity-priced facility energy and amortized embodied
	// manufacturing carbon (see DCRun).
	OperationalGCO2 float64 `json:"operational_gco2"`
	EmbodiedGCO2    float64 `json:"embodied_gco2"`

	// PerSlot is the fleet's charges of each slot, in slot order:
	// the per-slot energy, violation and active-server series. Not
	// serialised.
	PerSlot []Charges `json:"-"`
}

// Run executes one fleet workload: resolve the fleet, dispatch the
// VMs, simulate every datacenter through dcsim unchanged, and
// aggregate. A single-DC fleet with PUE 1 reproduces the plain
// datacenter simulation bit-for-bit — the degenerate "single"
// topology is the identity, which is what lets the sweep engine route
// every scenario through here without perturbing existing results.
//
// Run is a Stepper (stepper.go) driven to exhaustion, so a live
// service ticking the same Config one slot at a time computes the
// identical result.
func Run(cfg Config) (*FleetResult, error) {
	st, err := NewStepper(cfg)
	if err != nil {
		return nil, err
	}
	for !st.Done() {
		if _, err := st.Step(); err != nil {
			return nil, err
		}
	}
	return st.Result()
}
