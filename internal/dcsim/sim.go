package dcsim

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"weak"

	"repro/internal/alloc"
	"repro/internal/trace"
	"repro/internal/units"
)

// Config parameterises one data-center run.
type Config struct {
	// Trace supplies the actual VM behaviour (history + evaluation).
	Trace *trace.Trace

	// Predictions feed the allocator; build them with Predict. The
	// evaluated period is the last len(Predictions.CPU[0]) samples
	// implied by HistoryDays/EvalDays.
	Predictions *PredictionSet

	// HistoryDays and EvalDays split the trace; they must match the
	// prediction set.
	HistoryDays, EvalDays int

	// Policy allocates VMs each slot.
	Policy alloc.Policy

	// MaxServers bounds the pool (600 in the paper). Allocations
	// beyond it are counted as capacity violations on the overflow
	// servers.
	MaxServers int

	// StartSlot and NumSlots window the simulation inside the
	// evaluation period, in allocation slots: the stepper simulates
	// slots [StartSlot, StartSlot+NumSlots). The zero values keep the
	// whole period (NumSlots 0 = every slot from StartSlot on). The
	// epoch rebalancer (internal/topology) simulates one epoch at a
	// time; plain runs leave both zero.
	StartSlot, NumSlots int

	// InitialActiveServers seeds the transition accounting: how many
	// servers were already powered on before the first simulated slot.
	// 0 is the historical cold start, where every first-slot server
	// pays the power-on cost; the rebalancer passes each epoch's
	// closing count into the next so epoch boundaries are not
	// mis-billed as mass boot storms.
	InitialActiveServers int

	// Transitions prices server power-state changes and VM
	// migrations between slots. The zero value reproduces the paper
	// (no transition costs); DefaultTransitions enables the extension
	// accounting.
	Transitions TransitionModel

	// Source, when non-nil, gates the replay on data availability:
	// Stepper.Step refuses (with ErrAwaitingSamples, without
	// advancing or poisoning itself) to simulate a slot the source
	// has not released. A LiveFeed is both the source and the
	// provider of Trace/Predictions; batch replays leave it nil.
	Source SlotSource
}

// SlotResult aggregates one time slot (1 hour, 12 samples).
type SlotResult struct {
	Slot          int
	ActiveServers int

	// Violations counts overutilised server-samples: a server whose
	// actual aggregated CPU demand exceeds its full capacity at F_max
	// (beyond what raising the frequency can deliver) or whose memory
	// demand exceeds physical memory, at one 5-minute sample.
	Violations int

	// Energy is the data-center energy consumed during the slot.
	Energy units.Energy

	// TransitionEnergy is the extra cost of power-state changes and
	// migrations entering this slot (zero under the paper-faithful
	// transition model). It is included in Energy.
	TransitionEnergy units.Energy

	// Migrations is the number of VMs that changed servers entering
	// this slot.
	Migrations int

	// PlannedFreq is the allocator's cap frequency for the slot.
	PlannedFreq units.Frequency
}

// residentSets fills out with each VM's resident memory in bytes at
// sample abs (its utilisation of the 1 GB container). The bound is an
// invariant established by validate — the evaluation window lies
// inside the trace and all rows have uniform length — so an
// out-of-range sample means the trace was swapped or truncated after
// validation and is reported as an error rather than silently priced
// as zero resident memory (which would under-bill migrations).
func residentSets(tr *trace.Trace, abs int, out []float64) error {
	if abs < 0 || abs >= tr.Samples() {
		return fmt.Errorf("dcsim: resident-set sample %d outside trace (%d samples); trace modified after validation?",
			abs, tr.Samples())
	}
	for v, vm := range tr.VMs {
		out[v] = vm.Mem[abs] / 100 * float64(1<<30)
	}
	return nil
}

// validatedTraces memoises successful trace.Trace.Validate calls by
// root trace pointer. Traces are shared read-only across scenarios
// (the trace package's contract), and sweeps replay the same trace
// thousands of times — revalidating ~300k samples per replay is pure
// overhead. Per-DC epoch views (trace.Trace.SubsetInto) share their
// root's VMs, so the root is validated once and every view inherits
// it; a view pays only an O(VMs) shape check. Only success is cached;
// invalid traces are re-checked every time. The memo holds roots
// weakly and drops an entry once its root is collected, so it never
// keeps a trace's samples alive in a long-lived process that replays
// many traces.
var validatedTraces sync.Map // weak.Pointer[trace.Trace] → struct{}

func validate(cfg *Config) error {
	switch {
	case cfg.Trace == nil:
		return errors.New("dcsim: nil trace")
	case cfg.Policy == nil:
		return errors.New("dcsim: nil policy")
	case cfg.Predictions == nil:
		return errors.New("dcsim: nil predictions (build with Predict)")
	case cfg.HistoryDays <= 0 || cfg.EvalDays <= 0:
		return errors.New("dcsim: HistoryDays and EvalDays must be positive")
	}
	root := cfg.Trace.Root()
	key := weak.Make(root)
	if _, ok := validatedTraces.Load(key); !ok {
		if err := root.Validate(); err != nil {
			return err
		}
		if _, loaded := validatedTraces.LoadOrStore(key, struct{}{}); !loaded {
			runtime.AddCleanup(root, func(k weak.Pointer[trace.Trace]) { validatedTraces.Delete(k) }, key)
		}
	}
	if cfg.Trace != root {
		// The root's samples are in range; a view must still hold VMs
		// of the root's length (its VMs slice may have been edited).
		if err := cfg.Trace.ValidateShape(root.Samples()); err != nil {
			return err
		}
	}
	wantSamples := cfg.EvalDays * trace.SamplesPerDay
	if len(cfg.Predictions.CPU) != len(cfg.Trace.VMs) {
		return fmt.Errorf("dcsim: predictions cover %d VMs, trace has %d",
			len(cfg.Predictions.CPU), len(cfg.Trace.VMs))
	}
	if len(cfg.Predictions.Mem) != len(cfg.Trace.VMs) {
		return fmt.Errorf("dcsim: memory predictions cover %d VMs, trace has %d",
			len(cfg.Predictions.Mem), len(cfg.Trace.VMs))
	}
	// Check every row, not just CPU[0]: the slot loop slices
	// Predictions.CPU[v][lo:hi] and Predictions.Mem[v][lo:hi] for all
	// v, so one short row would panic mid-run.
	for v := range cfg.Predictions.CPU {
		if got := len(cfg.Predictions.CPU[v]); got < wantSamples {
			return fmt.Errorf("dcsim: CPU predictions for VM %d cover %d samples, need %d",
				v, got, wantSamples)
		}
		if got := len(cfg.Predictions.Mem[v]); got < wantSamples {
			return fmt.Errorf("dcsim: memory predictions for VM %d cover %d samples, need %d",
				v, got, wantSamples)
		}
	}
	total := (cfg.HistoryDays + cfg.EvalDays) * trace.SamplesPerDay
	if cfg.Trace.Samples() < total {
		return fmt.Errorf("dcsim: trace has %d samples, need %d", cfg.Trace.Samples(), total)
	}
	slots := cfg.EvalDays * trace.SamplesPerDay / trace.SamplesPerSlot
	if cfg.StartSlot < 0 || cfg.NumSlots < 0 || cfg.StartSlot+cfg.NumSlots > slots ||
		(cfg.NumSlots == 0 && cfg.StartSlot > slots) {
		return fmt.Errorf("dcsim: slot window [%d, %d) outside the %d-slot evaluation period",
			cfg.StartSlot, cfg.StartSlot+cfg.NumSlots, slots)
	}
	if cfg.InitialActiveServers < 0 {
		return fmt.Errorf("dcsim: InitialActiveServers must be >= 0, got %d", cfg.InitialActiveServers)
	}
	return nil
}
