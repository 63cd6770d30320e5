package topology

import (
	"fmt"

	"repro/internal/dcsim"
	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/trace"
	"repro/internal/units"
)

// DCSlotStep is one datacenter's contribution to a fleet slot: the
// live view a monitoring daemon exports per tick. At an epoch
// boundary it folds in the boundary charges billed to that slot —
// cross-DC migration energy, downtime violations, drained-DC
// power-off energy — so summing a DC's steps reproduces that DC's
// batch totals.
type DCSlotStep struct {
	// Name is the DC's resolved spec name.
	Name string

	// VMs is how many VMs the dispatcher currently places here.
	VMs int

	// EnergyMJ is the facility energy (IT × PUE) charged to this DC
	// at this slot, boundary charges included. Summed across DCs (and
	// the fleet-level SlotStep.EnergyMJ) it is bit-exact with the
	// batch FleetResult.SlotEnergyMJ series.
	EnergyMJ float64

	// ActiveServers is the DC's powered-on count this slot (0 while
	// drained).
	ActiveServers int

	// Violations counts this slot's QoS violation-samples, migration
	// downtime included at epoch boundaries.
	Violations int

	// LatencyWeightedViol is Violations scaled by the DC's WAN
	// distance (LatencyMs / WANLatencyRefMs).
	LatencyWeightedViol float64

	// Migrations counts within-DC server moves entering this slot.
	Migrations int

	// CrossDCMigrations counts VMs the rebalancer moved INTO this DC
	// at this boundary (0 off-boundary and under static dispatch).
	CrossDCMigrations int

	// OperationalGCO2 prices this slot's facility energy (boundary
	// charges included) at the DC's grid intensity for the slot's hour
	// of day; EmbodiedGCO2 is the slot's amortized manufacturing
	// carbon for the powered-on servers. Grams, derived from EnergyMJ
	// and ActiveServers — never an independent accumulator.
	OperationalGCO2 float64
	EmbodiedGCO2    float64
}

// SlotStep is one fleet slot of a live run: the fleet-level sums plus
// the per-DC breakdown, in fleet spec order.
type SlotStep struct {
	// Slot is the evaluation-period slot index (1 slot = 1 hour).
	Slot int

	// EnergyMJ is the fleet facility energy charged to this slot. It
	// is accumulated in the batch path's addition order, so it is
	// bit-exact with FleetResult.SlotEnergyMJ[Slot].
	EnergyMJ float64

	ActiveServers       int
	Violations          int
	LatencyWeightedViol float64
	Migrations          int
	CrossDCMigrations   int

	// OperationalGCO2 and EmbodiedGCO2 sum the per-DC carbon slots.
	OperationalGCO2 float64
	EmbodiedGCO2    float64

	// DCs is the per-datacenter breakdown, in fleet spec order.
	DCs []DCSlotStep
}

// Stepper advances a fleet run one slot at a time. It is the
// incremental primitive behind Run — Run is a Stepper driven to
// exhaustion — so a daemon ticking a Stepper computes bit-for-bit the
// result a batch run would: the per-DC dcsim run state is shared
// across steps (dcsim.Stepper), epochs open and close at the same
// boundaries with the same carried power-on state, and every
// floating-point accumulation happens in the batch order.
//
// A Stepper is not safe for concurrent use; callers serialise Step
// (the live service steps under its own lock). A Step or Result error
// poisons the stepper — slots cannot be retried, because the carried
// state has already advanced.
type Stepper struct {
	cfg        Config
	fleet      Fleet
	totalSlots int
	next       int
	res        *FleetResult // set by Result; final and read-only

	// carbon and models are per-DC constants (fleet spec order),
	// precomputed from the resolved specs. Read-only after NewStepper.
	carbon []dcCarbon
	models []serverModels

	ep *epochState
}

// serverModels pairs one DC's axis-resolved power model with its
// performance platform. base is the platform's native model the
// allocation policy plans against: the power-model axis reprices what
// the replay observes, never what the allocator decides, so tdp rows
// keep the ntc rows' placement, frequencies and violations
// bit-for-bit.
type serverModels struct {
	base  *power.ServerModel
	model power.Model
	plat  *platform.Platform
}

// NewStepper validates cfg, resolves the fleet, dispatches the VMs
// and builds the first epoch's per-DC simulation state without
// simulating any slot. Configuration errors a batch Run would report
// mid-run (bad platform, policy factory failure, invalid dcsim
// window) surface here instead.
func NewStepper(cfg Config) (*Stepper, error) {
	switch {
	case cfg.Trace == nil:
		return nil, fmt.Errorf("topology: nil trace")
	case len(cfg.Trace.VMs) == 0:
		return nil, fmt.Errorf("topology: trace has no VMs")
	case cfg.Predictions == nil:
		return nil, fmt.Errorf("topology: nil predictions")
	case cfg.NewPolicy == nil:
		return nil, fmt.Errorf("topology: nil policy factory")
	case cfg.HistoryDays <= 0 || cfg.EvalDays <= 0:
		return nil, fmt.Errorf("topology: HistoryDays and EvalDays must be positive")
	}
	fleet := cfg.Fleet.Resolve(cfg.MaxServers)
	if err := fleet.Validate(); err != nil {
		return nil, err
	}
	// Materialise the scenario's static-power default into the
	// resolved specs so dispatchers that rank by hardware
	// proportionality see each DC's effective platform cost. A DC
	// whose spec explicitly wrote the value — including an explicit
	// zero (StaticPowerSet) — keeps its own.
	for i := range fleet.DCs {
		if fleet.DCs[i].StaticPowerW == 0 && !fleet.DCs[i].StaticPowerSet {
			fleet.DCs[i].StaticPowerW = cfg.StaticPowerW
		}
	}
	st := &Stepper{
		cfg:        cfg,
		fleet:      fleet,
		totalSlots: cfg.EvalDays * trace.SamplesPerDay / trace.SamplesPerSlot,
		carbon:     make([]dcCarbon, len(fleet.DCs)),
		models:     make([]serverModels, len(fleet.DCs)),
	}
	for i, dc := range fleet.DCs {
		// The resolved spec already carries the effective static power
		// (per-DC override or the scenario default).
		base, plat, err := dc.serverPlatform()
		if err != nil {
			return nil, fmt.Errorf("topology: DC %q: %w", dc.Name, err)
		}
		// Every DC resolves the power model, hosting VMs or not, so a
		// misspelled axis value fails loudly.
		model, err := power.ResolveModel(cfg.PowerModel, base)
		if err != nil {
			return nil, fmt.Errorf("topology: DC %q: %w", dc.Name, err)
		}
		st.models[i] = serverModels{base: base, model: model, plat: plat}
		// Carbon prices against the platform's capacity (cores/GB drive
		// the embodied amortization; the power-model axis delegates
		// capacity, so either model prices the same grams).
		st.carbon[i] = dcCarbonOf(dc, base)
	}
	st.ep = newEpochState(st)
	if err := st.ep.openEpoch(st, 0); err != nil {
		return nil, err
	}
	return st, nil
}

// Fleet returns the resolved fleet (absolute server counts, defaults
// and the scenario static-power override filled in). Read-only.
func (st *Stepper) Fleet() Fleet { return st.fleet }

// Slots returns how many evaluation slots the run spans.
func (st *Stepper) Slots() int { return st.totalSlots }

// Done reports whether every slot has been stepped.
func (st *Stepper) Done() bool { return st.next >= st.totalSlots }

// epochState is the fleet loop, holding what the batch run keeps as
// loop state. The run is cut into epochs; each opens with a dispatch
// and simulates every DC's window through a per-epoch dcsim stepper
// seeded with the previous epoch's closing active-server count
// (allocator instances restart fresh: a re-dispatch is a global
// re-plan, and per-DC VM index sets change with the assignment).
//
// Static dispatch is the one-epoch case: without rebalancing (or with
// a single DC, which has nothing to rebalance) the only epoch spans
// the whole window and opens with the fleet's own dispatch at hour 0
// over the history window. With Rebalance.EverySlots = N, every N
// slots re-runs dispatch over the history plus every evaluation
// sample already replayed — the load an operator has actually
// observed.
//
// Every VM whose DC changes at a boundary is a cross-DC migration:
// its resident set at the boundary sample is priced through
// Transitions.MigrationEnergyPerByte (charged to the destination DC's
// first epoch slot, PUE-weighted into facility energy and the
// transition share) and it serves MigrationDowntimeSamples of
// downtime, charged as QoS violation-samples at the destination —
// raw and latency-weighted.
//
// A deliberate accounting boundary: *within-DC* server moves are
// counted and priced inside each epoch (dcsim's slot-to-slot diff),
// but NOT across the boundary slot itself — the re-dispatch is a
// global re-plan whose per-DC VM index sets change, so there is no
// well-defined "previous server" for the first slot of an epoch.
// Across that boundary only the power-on/off delta
// (InitialActiveServers) and the cross-DC moves above are billed;
// with epoch:N, one boundary in every N slots skips its within-DC
// migration stats. Compare rebalanced transition_mj against static
// rows with this in mind.
//
// The accumulation split is what keeps stepping bit-exact with the
// batch run: openEpoch folds the boundary pricing into the result
// accumulators (priced before the DC loop), closeEpoch folds each
// DC's epoch aggregates in DC index order, and nothing else touches
// the accumulators — so every floating-point addition happens at the
// same position in the same order.
type epochState struct {
	rebFleet    Fleet
	histSamples int
	every       int
	downtime    int

	// oneShot marks static dispatch, the single-epoch run. It keeps
	// the per-DC dcsim Result and weighs the mean planned frequency by
	// VMs alone (every DC spans the same window), the static rows'
	// exact formula.
	oneShot bool

	res           *FleetResult
	dcSlotMJ      [][]float64
	dcActive      [][]int // per-DC per-slot powered-on servers (embodied carbon)
	activePerSlot []int
	dcActiveSum   []int
	prevDC        []int // VM index -> DC index of the previous epoch
	prevActive    []int
	freqWeighted  float64
	freqWeight    float64

	// The open epoch.
	open                 bool
	epochStart, epochEnd int
	asg                  [][]int
	sims                 []*dcsim.Stepper // nil for empty DCs

	// Boundary charges of the open epoch, for the boundary SlotStep:
	// pricing is folded into the accumulators at openEpoch, drained-DC
	// power-off at closeEpoch (the batch order), and these buffers let
	// the boundary slot's live view report both.
	boundFleetMJ float64
	boundMJ      []float64
	boundViol    []int
	boundCross   []int
	drainIT      []float64 // drained-DC power-off, IT MJ
	drainFac     []float64 // drained-DC power-off, facility MJ
}

func newEpochState(st *Stepper) *epochState {
	cfg, fleet, n := &st.cfg, st.fleet, len(st.fleet.DCs)
	ep := &epochState{
		rebFleet:    fleet,
		histSamples: cfg.HistoryDays * trace.SamplesPerDay,
		every:       cfg.Rebalance.EverySlots,
		downtime:    max(cfg.MigrationDowntimeSamples, 0),
		oneShot:     !cfg.Rebalance.Enabled() || n == 1,
	}
	if ep.oneShot {
		ep.every = st.totalSlots
	}
	// The dispatcher override applies at rebalancing epochs only; the
	// initial placement stays the fleet's own static dispatch (see
	// RebalanceSpec.Dispatcher).
	if cfg.Rebalance.Dispatcher != "" {
		ep.rebFleet.Dispatcher = cfg.Rebalance.Dispatcher
	}
	ep.res = &FleetResult{Fleet: fleet, DCs: make([]DCRun, n), Slots: st.totalSlots}
	ep.res.SlotEnergyMJ = make([]float64, st.totalSlots)
	ep.dcSlotMJ = make([][]float64, n)
	ep.dcActive = make([][]int, n)
	for i, dc := range fleet.DCs {
		ep.res.DCs[i].Spec = dc
		ep.dcSlotMJ[i] = make([]float64, st.totalSlots)
		ep.dcActive[i] = make([]int, st.totalSlots)
	}
	ep.activePerSlot = make([]int, st.totalSlots)
	ep.dcActiveSum = make([]int, n)
	ep.prevActive = make([]int, n)
	ep.sims = make([]*dcsim.Stepper, n)
	ep.boundMJ = make([]float64, n)
	ep.boundViol = make([]int, n)
	ep.boundCross = make([]int, n)
	ep.drainIT = make([]float64, n)
	ep.drainFac = make([]float64, n)
	return ep
}

// openEpoch dispatches at slot e0, prices the cross-DC moves into the
// result accumulators and builds the epoch's per-DC steppers seeded
// with each DC's carried active-server count.
func (ep *epochState) openEpoch(st *Stepper, e0 int) error {
	cfg, fleet := &st.cfg, st.fleet
	n := min(ep.every, st.totalSlots-e0)
	// Observe history plus the evaluation samples already replayed.
	// The dispatch hour is the boundary slot's hour of day, which is
	// what makes epoch:N@carbon-greedy follow the sun.
	observed := ep.histSamples + e0*trace.SamplesPerSlot
	df := ep.rebFleet
	if e0 == 0 {
		df = fleet // initial placement: the fleet's own dispatcher
	}
	asg, err := DispatchAt(df, cfg.Trace, observed, e0%24)
	if err != nil {
		return err
	}
	nextDC := make([]int, len(cfg.Trace.VMs))
	for d, idxs := range asg {
		for _, v := range idxs {
			nextDC[v] = d
		}
	}

	ep.boundFleetMJ = 0
	for i := range fleet.DCs {
		ep.boundMJ[i], ep.boundViol[i], ep.boundCross[i] = 0, 0, 0
		ep.drainIT[i], ep.drainFac[i] = 0, 0
	}

	// Price the moves this re-dispatch caused.
	res := ep.res
	if ep.prevDC != nil {
		for v := range nextDC {
			if ep.prevDC[v] == nextDC[v] {
				continue
			}
			dst := nextDC[v]
			run := &res.DCs[dst]
			res.CrossDCMigrations++
			run.CrossDCMigrations++
			ep.boundCross[dst]++

			// Memory copy of the live migration: the VM's resident
			// set at the boundary sample, at the configured energy
			// per byte, lands in the destination's first epoch slot.
			bytes := cfg.Trace.VMs[v].Mem[observed] / 100 * float64(1<<30)
			mj := units.Energy(float64(cfg.Transitions.MigrationEnergyPerByte) * bytes).MJ()
			run.ITEnergyMJ += mj
			facility := mj * run.Spec.PUE
			run.EnergyMJ += facility
			res.TotalEnergyMJ += facility
			res.TransitionMJ += facility
			ep.dcSlotMJ[dst][e0] += facility
			res.SlotEnergyMJ[e0] += facility
			ep.boundMJ[dst] += facility
			ep.boundFleetMJ += facility

			// Downtime: the VM is unavailable while it moves.
			run.Violations += ep.downtime
			res.Violations += ep.downtime
			w := float64(ep.downtime) * latencyWeight(run.Spec.LatencyMs)
			run.LatencyWeightedViol += w
			res.LatencyWeightedViol += w
			ep.boundViol[dst] += ep.downtime
		}
	}
	ep.prevDC = nextDC
	ep.asg = asg

	for i, dc := range fleet.DCs {
		ep.sims[i] = nil
		if len(asg[i]) == 0 {
			// A drained DC powers its servers down; the energy is
			// computed here (the live boundary view reports it) and
			// folded into the accumulators at closeEpoch, the batch
			// position for it.
			if ep.prevActive[i] > 0 {
				off := units.Energy(float64(cfg.Transitions.ServerOffEnergy) * float64(ep.prevActive[i])).MJ()
				ep.drainIT[i] = off
				ep.drainFac[i] = off * dc.PUE
			}
			continue
		}
		m := st.models[i]
		// Plan against the native model; the axis-resolved model only
		// prices the replay (see serverModels).
		pol, err := cfg.NewPolicy(m.base)
		if err != nil {
			return fmt.Errorf("topology: DC %q: %w", dc.Name, err)
		}
		sim, err := dcsim.NewStepper(dcsim.Config{
			Trace:                cfg.Trace.Subset(asg[i]),
			Predictions:          subPredictions(cfg.Predictions, asg[i]),
			HistoryDays:          cfg.HistoryDays,
			EvalDays:             cfg.EvalDays,
			StartSlot:            e0,
			NumSlots:             n,
			InitialActiveServers: ep.prevActive[i],
			Policy:               pol,
			Server:               m.model,
			Platform:             m.plat,
			MaxServers:           dc.Servers,
			Transitions:          cfg.Transitions,
			TraceLabel:           cfg.TraceLabel,
			// The fleet gate already released every slot a DC steps;
			// passing the source on keeps a live feed's DC steppers from
			// offering lookahead windows over slots not yet ingested.
			Source: cfg.Source,
		})
		if err != nil {
			return fmt.Errorf("topology: DC %q: %w", dc.Name, err)
		}
		ep.sims[i] = sim
	}
	ep.open = true
	ep.epochStart, ep.epochEnd = e0, e0+n
	return nil
}

// closeEpoch folds the finished epoch's per-DC aggregates into the
// result accumulators, in DC index order.
func (ep *epochState) closeEpoch(st *Stepper) {
	if !ep.open {
		return
	}
	res := ep.res
	n := ep.epochEnd - ep.epochStart
	for i, dc := range st.fleet.DCs {
		run := &res.DCs[i]
		run.VMs = len(ep.asg[i]) // the final epoch's count survives
		if ep.sims[i] == nil {
			if ep.prevActive[i] > 0 {
				run.ITEnergyMJ += ep.drainIT[i]
				facility := ep.drainFac[i]
				run.EnergyMJ += facility
				res.TotalEnergyMJ += facility
				res.TransitionMJ += facility
				ep.dcSlotMJ[i][ep.epochStart] += facility
				res.SlotEnergyMJ[ep.epochStart] += facility
			}
			ep.prevActive[i] = 0
			continue
		}
		sim := ep.sims[i].Finish()
		if ep.oneShot {
			run.Result = sim
		}
		run.ITEnergyMJ += sim.TotalEnergy.MJ()
		facility := sim.TotalEnergy.MJ() * dc.PUE
		run.EnergyMJ += facility
		res.TotalEnergyMJ += facility
		res.TransitionMJ += sim.TotalTransitionEnergy.MJ() * dc.PUE
		run.Violations += sim.TotalViol
		res.Violations += sim.TotalViol
		w := float64(sim.TotalViol) * latencyWeight(dc.LatencyMs)
		run.LatencyWeightedViol += w
		res.LatencyWeightedViol += w
		run.Migrations += sim.TotalMigrations
		res.Migrations += sim.TotalMigrations
		for _, s := range sim.Slots {
			mj := s.Energy.MJ() * dc.PUE
			ep.dcSlotMJ[i][s.Slot] += mj
			res.SlotEnergyMJ[s.Slot] += mj
			ep.dcActive[i][s.Slot] = s.ActiveServers
			ep.activePerSlot[s.Slot] += s.ActiveServers
			ep.dcActiveSum[i] += s.ActiveServers
			if s.ActiveServers > run.PeakActive {
				run.PeakActive = s.ActiveServers
			}
		}
		ep.prevActive[i] = sim.Slots[len(sim.Slots)-1].ActiveServers
		// Weigh each DC's mean cap frequency by the VM-slots it
		// covers; in the one-shot run every DC spans the same window,
		// so VMs alone weigh it.
		weight := len(ep.asg[i])
		if !ep.oneShot {
			weight *= n
		}
		ep.freqWeighted += sim.MeanPlannedFreqGHz() * float64(weight)
		ep.freqWeight += float64(weight)
	}
	ep.open = false
}

// Step simulates the next fleet slot and returns its live view. With
// a Config.Source that has not released the next slot, Step returns
// an error wrapping dcsim.ErrAwaitingSamples and advances nothing —
// the one refusal that does not poison the stepper.
func (st *Stepper) Step() (SlotStep, error) {
	if st.Done() {
		return SlotStep{}, fmt.Errorf("topology: stepper exhausted: all %d slots stepped", st.totalSlots)
	}
	if src := st.cfg.Source; src != nil && !src.SlotReady(st.next) {
		return SlotStep{}, fmt.Errorf("topology: evaluation slot %d: %w", st.next, dcsim.ErrAwaitingSamples)
	}
	ep := st.ep
	s := st.next
	if !ep.open || s >= ep.epochEnd {
		ep.closeEpoch(st)
		if err := ep.openEpoch(st, s); err != nil {
			return SlotStep{}, err
		}
	}
	out := SlotStep{Slot: s, DCs: make([]DCSlotStep, len(st.fleet.DCs))}
	boundary := s == ep.epochStart
	if boundary {
		// The fleet slot energy starts from the boundary pricing sum,
		// accumulated per VM in dispatch order — the batch prefix of
		// SlotEnergyMJ[s] — so the per-DC additions below land on it
		// in the batch order and the total stays bit-exact.
		out.EnergyMJ = ep.boundFleetMJ
	}
	for i, dc := range st.fleet.DCs {
		d := &out.DCs[i]
		d.Name = dc.Name
		d.VMs = len(ep.asg[i])
		if boundary {
			d.EnergyMJ = ep.boundMJ[i]
			d.Violations = ep.boundViol[i]
			d.CrossDCMigrations = ep.boundCross[i]
		}
		if ep.sims[i] != nil {
			slot, err := ep.sims[i].Step()
			if err != nil {
				return SlotStep{}, fmt.Errorf("topology: DC %q: %w", dc.Name, err)
			}
			mj := slot.Energy.MJ() * dc.PUE
			d.EnergyMJ += mj
			out.EnergyMJ += mj
			d.ActiveServers = slot.ActiveServers
			d.Violations += slot.Violations
			d.Migrations = slot.Migrations
		} else if boundary && ep.prevActive[i] > 0 {
			d.EnergyMJ += ep.drainFac[i]
			out.EnergyMJ += ep.drainFac[i]
		}
		d.LatencyWeightedViol = float64(d.Violations) * latencyWeight(dc.LatencyMs)
		ci := st.carbon[i]
		d.OperationalGCO2 = d.EnergyMJ / mjPerKWh * ci.intensity.At(s%24)
		d.EmbodiedGCO2 = float64(d.ActiveServers) * ci.gPerServerHour
		out.ActiveServers += d.ActiveServers
		out.Violations += d.Violations
		out.LatencyWeightedViol += d.LatencyWeightedViol
		out.Migrations += d.Migrations
		out.CrossDCMigrations += d.CrossDCMigrations
		out.OperationalGCO2 += d.OperationalGCO2
		out.EmbodiedGCO2 += d.EmbodiedGCO2
	}
	st.next++
	return out, nil
}

// Result aggregates the finished run into the FleetResult a batch Run
// of the same Config returns, bit for bit. It errors until Done;
// afterwards it is idempotent.
func (st *Stepper) Result() (*FleetResult, error) {
	if !st.Done() {
		return nil, fmt.Errorf("topology: stepper not done: %d of %d slots stepped", st.next, st.totalSlots)
	}
	if st.res == nil {
		st.ep.closeEpoch(st)
		st.res = st.ep.finish(st)
	}
	return st.res, nil
}

// finish is the tail aggregation over the stitched series.
func (ep *epochState) finish(st *Stepper) *FleetResult {
	res := ep.res
	activeSum := 0
	for _, a := range ep.activePerSlot {
		activeSum += a
		if a > res.PeakActive {
			res.PeakActive = a
		}
	}
	res.MeanActive = float64(activeSum) / float64(st.totalSlots)
	for i := range res.DCs {
		res.DCs[i].MeanActive = float64(ep.dcActiveSum[i]) / float64(st.totalSlots)
		// A DC that never burned anything (no VMs in any epoch)
		// reports EPScore 0: it has no series.
		if res.DCs[i].ITEnergyMJ > 0 {
			res.DCs[i].EPScore = SeriesEPScore(ep.dcSlotMJ[i])
		}
		// Carbon derives from the stitched facility-energy and
		// active-server series, slot order — boundary and drain charges
		// are already folded into dcSlotMJ at their slots.
		ci := st.carbon[i]
		var op, emb float64
		for t, mj := range ep.dcSlotMJ[i] {
			op += mj / mjPerKWh * ci.intensity.At(t%24)
			emb += float64(ep.dcActive[i][t]) * ci.gPerServerHour
		}
		res.DCs[i].OperationalGCO2 = op
		res.DCs[i].EmbodiedGCO2 = emb
		res.OperationalGCO2 += op
		res.EmbodiedGCO2 += emb
	}
	res.EPScore = SeriesEPScore(res.SlotEnergyMJ)
	switch {
	case len(res.DCs) == 1 && res.DCs[0].Result != nil:
		// Bit-exact identity with the single-datacenter simulation:
		// avoid the weighted-mean round trip when there is nothing to
		// weigh.
		res.MeanPlannedFreqGHz = res.DCs[0].Result.MeanPlannedFreqGHz()
	case ep.freqWeight > 0:
		res.MeanPlannedFreqGHz = ep.freqWeighted / ep.freqWeight
	}
	return res
}
