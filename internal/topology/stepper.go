package topology

import (
	"fmt"

	"repro/internal/dcsim"
	"repro/internal/power"
	"repro/internal/trace"
	"repro/internal/units"
)

// Charges are one slot's values for one datacenter (DCSlotStep) or
// summed over the fleet (SlotStep). At an epoch boundary they fold in
// the boundary charges billed to that slot — cross-DC migration
// energy, downtime violations, drained-DC power-off energy — so a
// Tally of a DC's slots reproduces that DC's batch totals.
type Charges struct {
	// EnergyMJ is the facility energy (IT × PUE) charged to the slot,
	// boundary charges included.
	EnergyMJ float64

	// ActiveServers is the powered-on count this slot (0 for a DC
	// while drained).
	ActiveServers int

	// Violations counts this slot's QoS violation-samples, migration
	// downtime included at epoch boundaries.
	Violations int

	// LatencyWeightedViol is Violations scaled by the DC's WAN
	// distance (LatencyMs / WANLatencyRefMs).
	LatencyWeightedViol float64

	// Migrations counts within-DC server moves entering this slot.
	Migrations int

	// CrossDCMigrations counts VMs the rebalancer moved INTO the DC
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

// DCSlotStep is one datacenter's contribution to a fleet slot: the
// live view a monitoring daemon exports per tick.
type DCSlotStep struct {
	// Name is the DC's resolved spec name.
	Name string

	// VMs is how many VMs the dispatcher currently places here.
	VMs int

	Charges
}

// SlotStep is one fleet slot of a live run: the fleet-level sums plus
// the per-DC breakdown, in fleet spec order. Step stores the fleet's
// Charges in FleetResult.PerSlot[Slot].
type SlotStep struct {
	// Slot is the evaluation-period slot index (1 slot = 1 hour).
	Slot int

	// Charges sum the DCs' charges, in fleet spec order.
	Charges

	// DCs is the per-datacenter breakdown, in fleet spec order.
	DCs []DCSlotStep
}

// Tally folds a run of slots in slot order: the summed charges, the
// active-server sum and peak, and the bounds of the slot energies.
// The stepper keeps one for the fleet and one per DC, and Step is the
// one place each slot is folded: the batch result, the live service's
// snapshots and its forks all read a Tally.
type Tally struct {
	// Steps is how many slots have been folded.
	Steps int

	// The charges, each summed over the folded slots in slot order.
	EnergyMJ            float64
	Violations          int
	LatencyWeightedViol float64
	Migrations          int
	CrossDCMigrations   int
	OperationalGCO2     float64
	EmbodiedGCO2        float64

	// ActiveSum and PeakActive are the sum and the peak of the folded
	// slots' ActiveServers.
	ActiveSum  int
	PeakActive int

	// MinSlotMJ and MaxSlotMJ bound the folded slots' EnergyMJ.
	MinSlotMJ, MaxSlotMJ float64
}

// Add folds the next slot's charges.
func (t *Tally) Add(c *Charges) {
	if t.Steps == 0 || c.EnergyMJ < t.MinSlotMJ {
		t.MinSlotMJ = c.EnergyMJ
	}
	if t.Steps == 0 || c.EnergyMJ > t.MaxSlotMJ {
		t.MaxSlotMJ = c.EnergyMJ
	}
	t.Steps++
	t.EnergyMJ += c.EnergyMJ
	t.Violations += c.Violations
	t.LatencyWeightedViol += c.LatencyWeightedViol
	t.Migrations += c.Migrations
	t.CrossDCMigrations += c.CrossDCMigrations
	t.OperationalGCO2 += c.OperationalGCO2
	t.EmbodiedGCO2 += c.EmbodiedGCO2
	t.ActiveSum += c.ActiveServers
	if c.ActiveServers > t.PeakActive {
		t.PeakActive = c.ActiveServers
	}
}

// EPScore measures how proportionally the folded energy series tracks
// its own dynamic range: 1 − min/max over the slot energies, in
// [0,1], and 0 before the first slot. A fleet that burns the same
// power in the quietest and busiest slot is fully unproportional (0);
// one whose energy falls to zero at idle approaches 1. It is a
// realized, workload-conditional score — compare it across policies
// and topologies on the same trace, not across traces.
func (t *Tally) EPScore() float64 {
	switch {
	case t.Steps == 0:
		return 0
	case t.MaxSlotMJ <= 0:
		// The series never burned anything: energy is identically zero
		// in the quietest and the busiest slot, which is the MOST
		// proportional outcome, not the least — an idle fleet that
		// consumes nothing tracks its load perfectly.
		return 1
	}
	return 1 - t.MinSlotMJ/t.MaxSlotMJ
}

// Stepper advances a fleet run one slot at a time. It is the
// incremental primitive behind Run — Run is a Stepper driven to
// exhaustion — so a daemon ticking a Stepper computes bit-for-bit the
// result a batch run would: each DC's dcsim stepper carries its state
// across steps, epochs open and close at the same boundaries with the
// same carried power-on state, and every floating-point accumulation
// happens in the batch order.
//
// The run is cut into epochs; each opens with a dispatch and
// simulates every DC's window through a per-epoch dcsim stepper
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
// The accumulation split fixes every floating-point addition's
// position and order: openEpoch folds the boundary pricing into the
// result's energy and latency-weighted totals (priced before the DC
// loop), Step folds each slot into the tallies, each DC's epoch
// totals and the per-slot charges, closeEpoch bills each DC's epoch
// totals into the result's energy and latency-weighted totals in DC
// index order, and finish reads everything else — the integer counts,
// active servers, carbon and EP scores — off the tallies. Nothing
// else touches them.
//
// A Stepper is not safe for concurrent use; callers serialise Step
// (the live service steps under its own lock). A Step or Result error
// poisons the stepper — slots cannot be retried, because the carried
// state has already advanced.
type Stepper struct {
	cfg         Config
	fleet       Fleet
	rebFleet    Fleet // the fleet rebalancing epochs dispatch
	totalSlots  int
	histSamples int
	every       int

	// oneShot marks static dispatch, the single-epoch run. It weighs
	// the mean planned frequency by VMs alone (every DC spans the same
	// window), the static rows' exact formula.
	oneShot bool

	next int

	// models are the per-DC constants, precomputed from the resolved
	// specs; dcs is the per-DC state the run mutates. Both are in
	// fleet spec order.
	models []serverModels
	dcs    []dcState

	// res accumulates the result; Result closes the last epoch and
	// finishes it, after which it is final and read-only.
	res          *FleetResult
	tally        Tally // the fleet's slots
	prevDC       []int // VM index -> DC index of the previous epoch
	freqWeighted float64
	freqWeight   float64

	// The open epoch. asg lives in bufs.
	open                 bool
	epochStart, epochEnd int
	asg                  Assignment

	// bufs are the buffers the epochs refill; shared marks them as
	// also another stepper's since a Clone, so the next epoch opens
	// on buffers of its own (see epochBufs).
	bufs   *epochBufs
	shared bool

	// boundFleetMJ is the open epoch's cross-DC migration energy,
	// which Step bills to the fleet's boundary slot.
	boundFleetMJ float64
}

// serverModels are one DC's constants: its platform's native power
// model, the replay's DVFS-level tables over the axis-resolved model,
// which every epoch of the DC steps on, and its carbon pricing. base
// is the model the allocation policy plans against and the
// dispatchers rank by: the power-model axis reprices what the replay
// observes, never what the allocator decides, so tdp rows keep the
// ntc rows' placement, frequencies and violations bit-for-bit.
type serverModels struct {
	base   *power.ServerModel
	tables *dcsim.Tables
	carbon dcCarbon
}

// dcState is everything the run mutates for one DC. Clone copies the
// whole record, so a new field is forked with the rest.
type dcState struct {
	sim   *dcsim.Stepper // the open epoch's; nil while the DC hosts no VM
	acc   epochTotals    // the open epoch's slots so far
	tally Tally          // every slot stepped

	// active is the active-server count the DC closed its last epoch
	// with, which seeds the next one.
	active int

	// bound are the open epoch's boundary charges (cross-DC migration
	// energy, downtime violations and the VMs moved in), which Step
	// bills to the boundary slot; the energy is folded into the result
	// totals at openEpoch. drainIT is a drained DC's power-off energy
	// (IT MJ), billed to the boundary slot by Step and folded into the
	// result totals at closeEpoch.
	bound   Charges
	drainIT float64
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
	n := len(fleet.DCs)
	st := &Stepper{
		cfg:         cfg,
		fleet:       fleet,
		rebFleet:    fleet,
		totalSlots:  cfg.EvalDays * trace.SamplesPerDay / trace.SamplesPerSlot,
		histSamples: cfg.HistoryDays * trace.SamplesPerDay,
		every:       cfg.Rebalance.EverySlots,
		oneShot:     !cfg.Rebalance.Enabled() || n == 1,
		models:      make([]serverModels, n),
		dcs:         make([]dcState, n),
	}
	if st.oneShot {
		st.every = st.totalSlots
	}
	// The dispatcher override applies at rebalancing epochs only; the
	// initial placement stays the fleet's own static dispatch (see
	// RebalanceSpec.Dispatcher).
	if cfg.Rebalance.Dispatcher != "" {
		st.rebFleet.Dispatcher = cfg.Rebalance.Dispatcher
	}
	st.res = &FleetResult{Fleet: fleet, DCs: make([]DCRun, n),
		Totals: Totals{Slots: st.totalSlots, DCCount: n}}
	st.res.PerSlot = make([]Charges, st.totalSlots)
	for i, dc := range fleet.DCs {
		st.res.DCs[i].Name, st.res.DCs[i].Servers = dc.Name, dc.Servers
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
		tables, err := dcsim.NewTables(model, plat)
		if err != nil {
			return nil, fmt.Errorf("topology: DC %q: %w", dc.Name, err)
		}
		// Carbon prices against the platform's capacity (cores/GB drive
		// the embodied amortization; the power-model axis delegates
		// capacity, so either model prices the same grams).
		st.models[i] = serverModels{base: base, tables: tables, carbon: dcCarbonOf(dc, base)}
	}
	if err := st.openEpoch(0); err != nil {
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

// Tally returns the fold of every slot stepped so far over the fleet.
func (st *Stepper) Tally() Tally { return st.tally }

// DCTally returns the fold of every slot stepped so far in DC i, in
// fleet spec order.
func (st *Stepper) DCTally(i int) Tally { return st.dcs[i].tally }

// epochTotals fold one DC's dcsim slots of the open epoch, in slot
// order, into what closeEpoch bills.
type epochTotals struct {
	energy, transition units.Energy // summed from zero
	violations         int
	active             int     // the last slot's ActiveServers
	freqGHz            float64 // the sum of the planned GHz
}

func (a *epochTotals) add(slot *dcsim.SlotResult) {
	a.energy += slot.Energy
	a.transition += slot.TransitionEnergy
	a.violations += slot.Violations
	a.active = slot.ActiveServers
	a.freqGHz += slot.PlannedFreq.GHz()
}

// epochBufs are what an epoch fills for its DCs: the dispatch (its
// per-DC lists and scratch), the VM-to-DC map it derives, and each
// DC's trace and prediction views, which the DC's dcsim stepper reads
// until the epoch closes and its lookahead helpers until the stepper
// withdraws its window. The next epoch refills them in place, so a
// boundary allocates per DC, not per VM.
//
// Clone aliases them: the clone's DC steppers read the views of the
// epoch both sides are in. Both sides are then marked shared, and
// whichever opens its next epoch does so on fresh buffers, so neither
// ever overwrites what the other still reads.
type epochBufs struct {
	disp   dispatcher
	nextDC []int    // the spare VM-to-DC map (see openEpoch)
	views  []dcView // fleet order
}

// dcView is one DC's view of the fleet's trace and predictions.
type dcView struct {
	tr   trace.Trace
	pred dcsim.PredictionSet
}

// fill makes v the view of the rows of tr and ps for the VMs at idxs,
// in that order, reusing v's buffers.
func (v *dcView) fill(tr *trace.Trace, ps *dcsim.PredictionSet, idxs []int) {
	tr.SubsetInto(&v.tr, idxs)
	v.pred.Predictor = ps.Predictor
	v.pred.CPU = resize(v.pred.CPU, len(idxs))
	v.pred.Mem = resize(v.pred.Mem, len(idxs))
	for i, x := range idxs {
		v.pred.CPU[i] = ps.CPU[x]
		v.pred.Mem[i] = ps.Mem[x]
	}
}

// openEpoch dispatches at slot e0, prices the cross-DC moves into the
// result accumulators and builds the epoch's per-DC steppers seeded
// with each DC's carried active-server count.
func (st *Stepper) openEpoch(e0 int) error {
	cfg, fleet := &st.cfg, st.fleet
	n := min(st.every, st.totalSlots-e0)
	// Observe history plus the evaluation samples already replayed.
	// The dispatch hour is the boundary slot's hour of day, which is
	// what makes epoch:N@carbon-greedy follow the sun.
	observed := st.histSamples + e0*trace.SamplesPerSlot
	df := st.rebFleet
	if e0 == 0 {
		df = fleet // initial placement: the fleet's own dispatcher
	}
	if st.bufs == nil || st.shared {
		st.bufs = &epochBufs{disp: dispatcher{models: st.models}, views: make([]dcView, len(fleet.DCs))}
		st.shared = false
	}
	b := st.bufs
	asg, err := b.disp.dispatch(df, cfg.Trace, observed, e0%24)
	if err != nil {
		return err
	}
	nextDC := resize(b.nextDC, len(cfg.Trace.VMs))
	for d, idxs := range asg {
		for _, v := range idxs {
			nextDC[v] = d
		}
	}

	st.boundFleetMJ = 0
	for i := range st.dcs {
		st.dcs[i].bound = Charges{}
	}

	// Price the moves this re-dispatch caused.
	res := st.res
	if st.prevDC != nil {
		for v := range nextDC {
			if st.prevDC[v] == nextDC[v] {
				continue
			}
			dst := nextDC[v]
			run, dc, bound := &res.DCs[dst], &fleet.DCs[dst], &st.dcs[dst].bound
			bound.CrossDCMigrations++

			// Memory copy of the live migration: the VM's resident
			// set at the boundary sample, at the configured energy
			// per byte, lands in the destination's first epoch slot.
			bytes := cfg.Trace.VMs[v].Mem[observed] / 100 * float64(1<<30)
			mj := units.Energy(float64(cfg.Transitions.MigrationEnergyPerByte) * bytes).MJ()
			run.ITEnergyMJ += mj
			facility := mj * dc.PUE
			run.EnergyMJ += facility
			res.TotalEnergyMJ += facility
			res.TransitionMJ += facility
			bound.EnergyMJ += facility
			st.boundFleetMJ += facility

			// Downtime: the VM is unavailable while it moves.
			bound.Violations += MigrationDowntimeSamples
			w := float64(MigrationDowntimeSamples) * latencyWeight(dc.LatencyMs)
			run.LatencyWeightedViol += w
			res.LatencyWeightedViol += w
		}
	}
	st.prevDC, b.nextDC = nextDC, st.prevDC
	st.asg = asg

	for i, dc := range fleet.DCs {
		ds := &st.dcs[i]
		ds.sim, ds.acc, ds.drainIT = nil, epochTotals{}, 0
		if len(asg[i]) == 0 {
			st.models[i].tables.Recycle()
			// A drained DC powers its servers down; the energy is
			// computed here, billed to the boundary slot by Step and
			// folded into the result totals at closeEpoch.
			if ds.active > 0 {
				ds.drainIT = units.Energy(float64(cfg.Transitions.ServerOffEnergy) * float64(ds.active)).MJ()
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
		v := &b.views[i]
		v.fill(cfg.Trace, cfg.Predictions, asg[i])
		sim, err := m.tables.NewStepper(dcsim.Config{
			Trace:                &v.tr,
			Predictions:          &v.pred,
			HistoryDays:          cfg.HistoryDays,
			EvalDays:             cfg.EvalDays,
			StartSlot:            e0,
			NumSlots:             n,
			InitialActiveServers: ds.active,
			Policy:               pol,
			MaxServers:           dc.Servers,
			Transitions:          cfg.Transitions,
			// The fleet gate already released every slot a DC steps;
			// passing the source on keeps a live feed's DC steppers from
			// offering lookahead windows over slots not yet ingested.
			Source: cfg.Source,
		})
		if err != nil {
			return fmt.Errorf("topology: DC %q: %w", dc.Name, err)
		}
		ds.sim = sim
	}
	st.open = true
	st.epochStart, st.epochEnd = e0, e0+n
	return nil
}

// closeEpoch folds the finished epoch's per-DC totals into the result
// totals, in DC index order, carries each DC's closing active-server
// count into the next epoch and drops the epoch's DC steppers.
func (st *Stepper) closeEpoch() {
	if !st.open {
		return
	}
	res := st.res
	n := st.epochEnd - st.epochStart
	for i, dc := range st.fleet.DCs {
		run, ds := &res.DCs[i], &st.dcs[i]
		run.VMs = len(st.asg[i]) // the final epoch's count survives
		if ds.sim == nil {
			if ds.active > 0 {
				run.ITEnergyMJ += ds.drainIT
				facility := ds.drainIT * dc.PUE
				run.EnergyMJ += facility
				res.TotalEnergyMJ += facility
				res.TransitionMJ += facility
			}
			ds.active = 0
			continue
		}
		a := &ds.acc
		run.ITEnergyMJ += a.energy.MJ()
		facility := a.energy.MJ() * dc.PUE
		run.EnergyMJ += facility
		res.TotalEnergyMJ += facility
		res.TransitionMJ += a.transition.MJ() * dc.PUE
		w := float64(a.violations) * latencyWeight(dc.LatencyMs)
		run.LatencyWeightedViol += w
		res.LatencyWeightedViol += w
		ds.active, ds.sim = a.active, nil
		// Weigh each DC's mean cap frequency by the VM-slots it
		// covers; in the one-shot run every DC spans the same window,
		// so VMs alone weigh it. A single DC has nothing to weigh:
		// weight 1 keeps its mean the exact sum/n.
		weight := len(st.asg[i])
		switch {
		case len(st.fleet.DCs) == 1:
			weight = 1
		case !st.oneShot:
			weight *= n
		}
		st.freqWeighted += a.freqGHz / float64(n) * float64(weight)
		st.freqWeight += float64(weight)
	}
	st.open = false
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
	s := st.next
	if !st.open || s >= st.epochEnd {
		st.closeEpoch()
		if err := st.openEpoch(s); err != nil {
			return SlotStep{}, err
		}
	}
	out := SlotStep{Slot: s, DCs: make([]DCSlotStep, len(st.fleet.DCs))}
	boundary := s == st.epochStart
	if boundary {
		// The fleet slot energy starts from the boundary pricing sum,
		// accumulated per VM in dispatch order; the per-DC charges land
		// on it in DC order.
		out.EnergyMJ = st.boundFleetMJ
	}
	for i, dc := range st.fleet.DCs {
		d, ds := &out.DCs[i], &st.dcs[i]
		d.Name = dc.Name
		d.VMs = len(st.asg[i])
		if boundary {
			d.Charges = ds.bound
		}
		if ds.sim != nil {
			slot, err := ds.sim.Step()
			if err != nil {
				return SlotStep{}, fmt.Errorf("topology: DC %q: %w", dc.Name, err)
			}
			ds.acc.add(&slot)
			mj := slot.Energy.MJ() * dc.PUE
			d.EnergyMJ += mj
			out.EnergyMJ += mj
			d.ActiveServers = slot.ActiveServers
			d.Violations += slot.Violations
			d.Migrations = slot.Migrations
		} else if boundary && ds.active > 0 {
			facility := ds.drainIT * dc.PUE
			d.EnergyMJ += facility
			out.EnergyMJ += facility
		}
		d.LatencyWeightedViol = float64(d.Violations) * latencyWeight(dc.LatencyMs)
		ci := st.models[i].carbon
		d.OperationalGCO2 = d.EnergyMJ / mjPerKWh * ci.intensity.At(s%24)
		d.EmbodiedGCO2 = float64(d.ActiveServers) * ci.gPerServerHour
		out.ActiveServers += d.ActiveServers
		out.Violations += d.Violations
		out.LatencyWeightedViol += d.LatencyWeightedViol
		out.Migrations += d.Migrations
		out.CrossDCMigrations += d.CrossDCMigrations
		out.OperationalGCO2 += d.OperationalGCO2
		out.EmbodiedGCO2 += d.EmbodiedGCO2
		ds.tally.Add(&d.Charges)
	}
	st.tally.Add(&out.Charges)
	st.res.PerSlot[s] = out.Charges
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
	// The last epoch is open until the first Result closes it.
	if st.open {
		st.closeEpoch()
		st.finish()
	}
	return st.res, nil
}

// finish reads the fleet and per-DC aggregates off the tallies.
func (st *Stepper) finish() {
	res := st.res
	slots := float64(st.totalSlots)
	res.Violations, res.Migrations = st.tally.Violations, st.tally.Migrations
	res.CrossDCMigrations = st.tally.CrossDCMigrations
	res.MeanActive = float64(st.tally.ActiveSum) / slots
	res.PeakActive = st.tally.PeakActive
	for i := range res.DCs {
		run, t := &res.DCs[i], &st.dcs[i].tally
		run.Violations, run.Migrations = t.Violations, t.Migrations
		run.CrossDCMigrations = t.CrossDCMigrations
		run.MeanActive = float64(t.ActiveSum) / slots
		run.PeakActive = t.PeakActive
		// A DC that never burned anything (no VMs in any epoch)
		// reports EPScore 0: it has no series.
		if run.ITEnergyMJ > 0 {
			run.EPScore = t.EPScore()
		}
		// Carbon sums each slot's grams in slot order; the fleet's is
		// the sum of the DCs' in fleet order.
		run.OperationalGCO2, run.EmbodiedGCO2 = t.OperationalGCO2, t.EmbodiedGCO2
		res.OperationalGCO2 += t.OperationalGCO2
		res.EmbodiedGCO2 += t.EmbodiedGCO2
	}
	res.EPScore = st.tally.EPScore()
	if st.freqWeight > 0 {
		res.MeanPlannedFreqGHz = st.freqWeighted / st.freqWeight
	}
}
