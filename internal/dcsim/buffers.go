package dcsim

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/alloc"
	"repro/internal/perf"
	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/workload"
)

// numClasses is the number of workload classes the replay loop
// aggregates over (LowMem/MidMem/HighMem).
const numClasses = 3

// Tables are one server model's DVFS-level lookup tables, built
// against a performance platform. Every server model the replay
// accepts has a finite DVFS grid, and every sample runs at one of its
// levels: the online governor's ClampFrequency level for dynamic
// policies, the planned cap for fixed-cap ones. Observables
// (perf.Table), power coefficients (power.LevelEvaluator) and the
// capacity scale factor are therefore precomputed once per level
// through the power.Model interface and indexed per sample,
// bit-identical to calling perf.Observe / Model.Power at that level's
// frequency (pinned against a per-sample reference replay in
// replay_ref_test.go). Evaluators are boxed once at table-build time,
// so the steady-state loop stays allocation-free under any power
// model.
//
// Tables are read-only once built, but for the spare step buffers
// they pass between steppers, and safe for concurrent use. A fleet
// builds one per datacenter and steps every epoch of that datacenter
// on it; every stepper is built on Tables (Tables.NewStepper).
type Tables struct {
	server power.Model
	spec   alloc.ServerSpec

	// Indexed by grid level.
	grid        []units.Frequency
	obs         *perf.Table
	levelPowers []power.LevelEvaluator
	scaleByLvl  []float64

	// spare holds the step buffers an epoch's stepper on these tables
	// left when its window ended, for the next epoch's (see release).
	spare atomic.Pointer[stepBufs]
}

// NewTables builds server's DVFS-level tables against plat.
func NewTables(server power.Model, plat *platform.Platform) (*Tables, error) {
	switch {
	case server == nil:
		return nil, errors.New("dcsim: nil server model")
	case plat == nil:
		return nil, errors.New("dcsim: nil platform")
	}
	grid := server.DVFSGrid()
	if len(grid) == 0 {
		return nil, fmt.Errorf("dcsim: server model %s has no DVFS grid", server.ModelName())
	}
	t := &Tables{
		server: server,
		spec: alloc.ServerSpec{
			Cores:         server.NumCores(),
			MemContainers: server.MemGB(),
			FMax:          server.FreqMax(),
			FMin:          server.FreqMin(),
		},
		grid:        grid,
		obs:         perf.NewTable(plat, grid, 1),
		levelPowers: make([]power.LevelEvaluator, len(grid)),
		scaleByLvl:  make([]float64, len(grid)),
	}
	for k, f := range grid {
		t.levelPowers[k] = server.LevelAt(f)
		t.scaleByLvl[k] = t.spec.FMax.GHz() / f.GHz()
	}
	return t, nil
}

// stepBufs are the buffers a stepper's slot loop refills: the slot's
// allocation input (see SlotDemands), the two Assignments the policy
// fills in turn, the resident sets and the migration matcher that
// price transitions.
type stepBufs struct {
	dem       SlotDemands
	asg, prev alloc.Assignment
	resident  []float64
	match     alloc.MigrationMatcher
}

// bufPool recycles step buffers between steppers: a stepper takes one
// when it is built and gives it back once its window is done, so
// successive runs refill the buffers the last ones grew instead of
// regrowing them. Buffers change hands only between steppers, never
// per step, so the slot loop stays allocation-free even when the pool
// drops items (as it does at random under the race detector).
var bufPool = sync.Pool{New: func() any { return new(stepBufs) }}

// release gives the stepper's buffers back once its window is done; no
// step may follow. A fleet epoch's stepper (handoff: a window that
// ends before the evaluation period does) leaves them as the tables'
// spare, and the datacenter's next epoch takes them there: a
// sync.Pool keeps a released item on the releasing P, so a goroutine
// that changed P between two epochs missed it and grew a fresh set.
// Every other stepper, and a handoff that finds a spare already
// parked, returns them to bufPool.
func (st *Stepper) release() {
	if !st.handoff || !st.t.spare.CompareAndSwap(nil, st.b) {
		bufPool.Put(st.b)
	}
	st.b, st.asg, st.prev, st.resident, st.hasPrev = nil, nil, nil, nil, false
}

// takeBufs returns step buffers for a new stepper on t: the spare an
// earlier epoch's stepper left, else bufPool's.
func (t *Tables) takeBufs() *stepBufs {
	if b := t.spare.Swap(nil); b != nil {
		return b
	}
	return bufPool.Get().(*stepBufs)
}

// Recycle returns the step buffers parked on t to the pool. A fleet
// calls it for a datacenter that hosts no VM in the epoch it opens, so
// the buffers serve other steppers while the datacenter is drained,
// and are not lost with t if the run ends drained.
func (t *Tables) Recycle() {
	if b := t.spare.Swap(nil); b != nil {
		bufPool.Put(b)
	}
}

// bind points the stepper's Assignments and resident sets into st.b.
func (st *Stepper) bind() {
	st.asg, st.prev = &st.b.asg, &st.b.prev
	if st.cfg.Transitions != (TransitionModel{}) {
		st.b.resident = slices.Grow(st.b.resident[:0], len(st.cfg.Trace.VMs))[:len(st.cfg.Trace.VMs)]
		st.resident = st.b.resident
	}
}

// step simulates one slot and returns its result: build demand views,
// allocate, replay, and price transitions. The policy fills the run's
// own Assignment buffer, so once the buffers have grown a step
// allocates nothing but what the policy's own pools take (and a memo
// hit takes none): pinned for every registered policy on a memo hit
// by TestSlotLoopAllocationFree.
func (st *Stepper) step(s int) (SlotResult, error) {
	cfg := &st.cfg
	lo := s * trace.SamplesPerSlot // offset within the eval period

	// 1) Predicted demands, packed as a lookahead Window packs them,
	// so both derive the same allocation input.
	vms := st.b.dem.fill(cfg.Predictions, s)

	// 2) Allocate.
	asg := st.asg
	if err := alloc.Into(cfg.Policy, asg, vms, st.t.spec); err != nil {
		return SlotResult{}, fmt.Errorf("dcsim: slot %d: %w", s, err)
	}

	// 3) Replay the actual traces against the assignment.
	slot, err := st.replaySlot(asg, st.evalStart+lo)
	if err != nil {
		return SlotResult{}, fmt.Errorf("dcsim: slot %d: %w", s, err)
	}
	slot.Slot = s
	slot.PlannedFreq = asg.PlannedFreq

	// 4) Transition accounting (zero under the paper model).
	if cfg.Transitions != (TransitionModel{}) {
		if err := residentSets(cfg.Trace, st.evalStart+lo, st.resident); err != nil {
			return SlotResult{}, fmt.Errorf("dcsim: slot %d: %w", s, err)
		}
		var prev *alloc.Assignment
		if st.hasPrev {
			prev = st.prev
		}
		te, stats := cfg.Transitions.slotTransitionEnergy(&st.b.match, prev, asg, st.resident, cfg.InitialActiveServers)
		slot.TransitionEnergy = te
		slot.Migrations = stats.Migrations
		slot.Energy += te
	}
	st.asg, st.prev, st.hasPrev = st.prev, asg, true
	return slot, nil
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
func (st *Stepper) replaySlot(asg *alloc.Assignment, absLo int) (SlotResult, error) {
	var out SlotResult
	cfg := &st.cfg
	spec := st.t.spec
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
		if fixedLvl = slices.Index(st.t.grid, asg.PlannedFreq); fixedLvl < 0 {
			return out, fmt.Errorf("fixed-cap frequency %v is not a DVFS level of %s",
				asg.PlannedFreq, st.t.server.ModelName())
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
				lvl = st.t.server.LevelIndex(units.GHz(needGHz), len(st.t.grid))
			}
			scale := st.t.scaleByLvl[lvl]

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
				obs := st.t.obs.At(workload.Class(c), lvl)
				wfm += classBusy * obs.WFMFraction
				llcR += classBusy * obs.LLCReadsPerSec
				llcW += classBusy * obs.LLCWritesPerSec
				memR += classBusy * obs.MemReadBytesPerSec
				memW += classBusy * obs.MemWriteBytesPerSec
			}
			if busy > 0 {
				wfm /= busy
			}
			p := st.t.levelPowers[lvl].Evaluate(busy, wfm, llcR, llcW, memR, memW)
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
