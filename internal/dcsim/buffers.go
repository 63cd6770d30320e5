package dcsim

import (
	"fmt"
	"slices"

	"repro/internal/alloc"
	"repro/internal/perf"
	"repro/internal/power"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/workload"
)

// numClasses is the number of workload classes the replay loop
// aggregates over (LowMem/MidMem/HighMem).
const numClasses = 3

// runState holds everything one Run shares across its slots: the
// DVFS-level lookup tables and the reusable scratch buffers that make
// the steady-state slot loop allocation-free.
//
// Every server model the replay accepts has a finite DVFS grid, and
// every sample runs at one of its levels: the online governor's
// ClampFrequency level for dynamic policies, the planned cap for
// fixed-cap ones. Observables (perf.Table), power coefficients
// (power.LevelEvaluator) and the capacity scale factor are therefore
// precomputed once per level through the power.Model interface and
// indexed per sample, bit-identical to calling perf.Observe /
// Model.Power at that level's frequency (pinned against a per-sample
// reference replay in replay_ref_test.go). Evaluators are boxed once
// at table-build time, so the steady-state loop stays allocation-free
// under any power model.
type runState struct {
	cfg  *Config
	spec alloc.ServerSpec

	evalStart int
	sampleSec float64
	first     int
	last      int

	// dem holds the current slot's allocation input (see SlotDemands).
	dem SlotDemands

	// resident is the reusable resident-set buffer for transition
	// accounting (nil when transitions are disabled).
	resident []float64

	// DVFS-level tables, indexed by grid level.
	grid        []units.Frequency
	obs         *perf.Table
	levelPowers []power.LevelEvaluator
	scaleByLvl  []float64

	// Columnar replay scratch: per-sample aggregates of one server's
	// slot window, rebuilt per server from flat trace rows.
	classCPU [numClasses][trace.SamplesPerSlot]float64
	cpuTotal [trace.SamplesPerSlot]float64
	memTotal [trace.SamplesPerSlot]float64

	prevAsg *alloc.Assignment
	slots   []SlotResult
}

func newRunState(cfg *Config) (*runState, error) {
	if err := validate(cfg); err != nil {
		return nil, err
	}
	grid := cfg.Server.DVFSGrid()
	if len(grid) == 0 {
		return nil, fmt.Errorf("dcsim: server model %s has no DVFS grid", cfg.Server.ModelName())
	}
	spec := alloc.ServerSpec{
		Cores:         cfg.Server.NumCores(),
		MemContainers: cfg.Server.MemGB(),
		FMax:          cfg.Server.FreqMax(),
		FMin:          cfg.Server.FreqMin(),
	}
	slots := cfg.EvalDays * trace.SamplesPerDay / trace.SamplesPerSlot
	first, last := cfg.StartSlot, slots
	if cfg.NumSlots > 0 {
		last = first + cfg.NumSlots
	}
	st := &runState{
		cfg:       cfg,
		spec:      spec,
		evalStart: cfg.HistoryDays * trace.SamplesPerDay,
		sampleSec: cfg.Trace.Interval.Seconds(),
		first:     first,
		last:      last,
		slots:     make([]SlotResult, 0, last-first),
	}
	if cfg.Transitions != (TransitionModel{}) {
		st.resident = make([]float64, len(cfg.Trace.VMs))
	}
	st.grid = grid
	st.obs = perf.NewTable(cfg.Platform, grid, 1)
	st.levelPowers = make([]power.LevelEvaluator, len(grid))
	st.scaleByLvl = make([]float64, len(grid))
	for k, f := range grid {
		st.levelPowers[k] = cfg.Server.LevelAt(f)
		st.scaleByLvl[k] = spec.FMax.GHz() / f.GHz()
	}
	return st, nil
}

// clone copies a runState for an independent continuation bound to
// cfg (the cloning stepper's own Config copy). Immutable per-run
// tables (DVFS grid, observables, level powers, capacity scales) and
// the previous assignment (read-only after its slot) are shared;
// per-step scratch is allocated fresh — it is rebuilt from scratch on
// every step — and the slot results are deep-copied so each side
// appends independently.
func (st *runState) clone(cfg *Config) *runState {
	c := *st
	c.cfg = cfg
	c.dem = SlotDemands{}
	if st.resident != nil {
		c.resident = make([]float64, len(st.resident))
	}
	c.slots = append(make([]SlotResult, 0, st.last-st.first), st.slots...)
	return &c
}

// step simulates one slot: build demand views, allocate, replay, and
// price transitions. It performs no heap allocations beyond what the
// allocation policy itself allocates (pinned by
// TestSlotLoopAllocationFree).
func (st *runState) step(s int) error {
	cfg := st.cfg
	lo := s * trace.SamplesPerSlot // offset within the eval period

	// 1) Predicted demands, packed as a lookahead Window packs them,
	// so both derive the same allocation input.
	vms := st.dem.fill(cfg.Predictions, s)

	// 2) Allocate.
	asg, err := cfg.Policy.Allocate(vms, st.spec)
	if err != nil {
		return fmt.Errorf("dcsim: slot %d: %w", s, err)
	}

	// 3) Replay the actual traces against the assignment.
	slot, err := st.replaySlot(asg, st.evalStart+lo)
	if err != nil {
		return fmt.Errorf("dcsim: slot %d: %w", s, err)
	}
	slot.Slot = s
	slot.PlannedFreq = asg.PlannedFreq

	// 4) Transition accounting (zero under the paper model).
	if cfg.Transitions != (TransitionModel{}) {
		if err := residentSets(cfg.Trace, st.evalStart+lo, st.resident); err != nil {
			return fmt.Errorf("dcsim: slot %d: %w", s, err)
		}
		te, stats := cfg.Transitions.slotTransitionEnergy(st.prevAsg, asg, st.resident, cfg.InitialActiveServers)
		slot.TransitionEnergy = te
		slot.Migrations = stats.Migrations
		slot.Energy += te
	}
	st.prevAsg = asg
	st.slots = append(st.slots, slot)
	return nil
}

// replaySlot plays the actual traces of one slot against an
// assignment: per server and sample it runs the shared online DVFS
// governor, integrates power, and counts overutilisation. The demand
// aggregation is columnar — per server it walks each member VM's flat
// trace row once, accumulating per-sample totals in the run-scoped
// scratch — which visits each per-sample accumulator in the same VM
// order as the original per-sample pointer walk, so every float result
// is bit-identical. It fails when a fixed-cap policy plans a frequency
// that is not a level of the server's DVFS grid.
func (st *runState) replaySlot(asg *alloc.Assignment, absLo int) (SlotResult, error) {
	var out SlotResult
	cfg := st.cfg
	spec := st.spec
	// Deliverable CPU capacity: demand beyond it is a violation. A
	// dynamic-DVFS policy can boost to F_max, so the whole capacity is
	// deliverable; a fixed-cap policy (COAT-OPT) is pinned at its
	// planned frequency and can deliver only the corresponding share —
	// the paper's "less control on violations ... using a fixed cap".
	capCPU := spec.CPUPoints()
	capMem := spec.MemPoints()

	// Fixed-cap policies run every sample pinned at PlannedFreq, one
	// grid level for the whole slot. It is located by exact value, not
	// by LevelIndex: ClampFrequency, which LevelIndex mirrors, can
	// round a grid level up one step.
	fixedLvl := 0
	if asg.FixedFreq {
		capCPU = spec.CPUPoints() * asg.PlannedFreq.GHz() / spec.FMax.GHz()
		if fixedLvl = slices.Index(st.grid, asg.PlannedFreq); fixedLvl < 0 {
			return out, fmt.Errorf("fixed-cap frequency %v is not a DVFS level of %s",
				asg.PlannedFreq, cfg.Server.ModelName())
		}
	}

	active := 0
	for _, srv := range asg.Servers {
		if len(srv.VMs) == 0 {
			continue
		}
		active++

		// Columnar aggregation of the server's actual demand.
		for i := range st.cpuTotal {
			st.cpuTotal[i] = 0
			st.memTotal[i] = 0
		}
		for c := range st.classCPU {
			for i := range st.classCPU[c] {
				st.classCPU[c][i] = 0
			}
		}
		for _, v := range srv.VMs {
			vm := cfg.Trace.VMs[v]
			cpuRow := vm.CPU[absLo : absLo+trace.SamplesPerSlot]
			memRow := vm.Mem[absLo : absLo+trace.SamplesPerSlot]
			cls := &st.classCPU[vm.Class]
			for i, c := range cpuRow {
				cls[i] += c
				st.cpuTotal[i] += c
				st.memTotal[i] += memRow[i]
			}
		}

		for i := 0; i < trace.SamplesPerSlot; i++ {
			cpuTotal := st.cpuTotal[i]
			memTotal := st.memTotal[i]

			// Overutilisation accounting (Fig. 4): demand beyond the
			// server's deliverable capacity even at F_max, or beyond
			// physical memory.
			if cpuTotal > capCPU+1e-9 || memTotal > capMem+1e-9 {
				out.Violations++
			}

			// Online DVFS governor: the lowest level that delivers the
			// demand (clipped at F_max when overloaded). Fixed-cap
			// policies run pinned at their planned level instead.
			lvl := fixedLvl
			if !asg.FixedFreq {
				needGHz := cpuTotal / spec.CPUPoints() * spec.FMax.GHz()
				lvl = cfg.Server.LevelIndex(units.GHz(needGHz), len(st.grid))
			}
			scale := st.scaleByLvl[lvl]

			// Busy core-equivalents at the chosen frequency.
			busy := cpuTotal / 100 * scale
			if busy > float64(spec.Cores) {
				busy = float64(spec.Cores)
			}

			// Per-class observables scale with the class's busy cores.
			var wfm, llcR, llcW, memR, memW float64
			for c := 0; c < numClasses; c++ {
				classCPU := st.classCPU[c][i]
				if classCPU == 0 {
					continue
				}
				classBusy := classCPU / 100 * scale
				obs := st.obs.At(workload.Class(c), lvl)
				wfm += classBusy * obs.WFMFraction
				llcR += classBusy * obs.LLCReadsPerSec
				llcW += classBusy * obs.LLCWritesPerSec
				memR += classBusy * obs.MemReadBytesPerSec
				memW += classBusy * obs.MemWriteBytesPerSec
			}
			if busy > 0 {
				wfm /= busy
			}
			p := st.levelPowers[lvl].Evaluate(busy, wfm, llcR, llcW, memR, memW)
			out.Energy += units.EnergyOver(p, st.sampleSec)
		}
	}
	out.ActiveServers = active

	// Pool-cap accounting: servers beyond the physical pool count as
	// violations for every sample of the slot.
	if cfg.MaxServers > 0 && active > cfg.MaxServers {
		out.Violations += (active - cfg.MaxServers) * trace.SamplesPerSlot
	}
	return out, nil
}

// finish aggregates the per-slot results.
func (st *runState) finish() *Result {
	label := st.cfg.TraceLabel
	if label == "" {
		label = "synthetic"
	}
	res := &Result{
		Policy:    st.cfg.Policy.Name(),
		Predictor: st.cfg.Predictions.Predictor,
		Trace:     label,
		Slots:     st.slots,
	}
	var activeSum int
	for _, s := range res.Slots {
		res.TotalEnergy += s.Energy
		res.TotalViol += s.Violations
		res.TotalMigrations += s.Migrations
		res.TotalTransitionEnergy += s.TransitionEnergy
		activeSum += s.ActiveServers
		if s.ActiveServers > res.PeakActive {
			res.PeakActive = s.ActiveServers
		}
	}
	if len(res.Slots) > 0 {
		res.MeanActive = float64(activeSum) / float64(len(res.Slots))
	}
	return res
}
