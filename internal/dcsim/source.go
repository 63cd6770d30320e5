package dcsim

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/forecast"
	"repro/internal/trace"
)

// SlotSource gates an incremental replay on data availability: before
// simulating evaluation slot s, a Stepper with a configured source
// asks SlotReady(s) and refuses — with ErrAwaitingSamples, without
// advancing or poisoning itself — while the answer is false. A replay
// over a pre-ingested trace has no source (nil) and is never gated.
//
// Implementations must be safe for concurrent use: the live service
// ingests samples from one goroutine while stepping from another.
type SlotSource interface {
	// SlotReady reports whether evaluation slot s (0-based within the
	// evaluation period) can be simulated — all of its actual samples
	// and the prediction samples the allocator needs are present.
	SlotReady(s int) bool
}

// ErrAwaitingSamples is returned (wrapped) by Stepper.Step when the
// configured SlotSource has not released the next slot yet. It is the
// one Step error that does NOT poison the stepper: nothing advanced,
// and the same slot can be stepped once its samples arrive.
var ErrAwaitingSamples = errors.New("awaiting observed samples")

// ErrObserveOrder is returned (wrapped) by LiveFeed.Observe when the
// offered slot is not the next unobserved one. Samples arrive on the
// wire in order or not at all — the same contract the CSV ingester
// enforces per VM ("sample out of order").
var ErrObserveOrder = errors.New("slot out of order")

// LiveFeed adapts live observed utilisation samples into the inputs a
// Stepper consumes: a private full-length trace whose history window
// is copied from a base trace and whose evaluation region fills in
// slot by slot through Observe, plus a private prediction set that is
// kept bit-exact with what batch Predict would compute over the fully
// ingested trace. It is the SlotSource for its own stepper: a slot is
// ready once its 12 actual samples (and the prediction day they
// complete) have been ingested.
//
// Prediction bookkeeping mirrors Predict's rolling day-by-day
// windows: day 0 is forecast at construction (it needs history only);
// day d is forecast the moment the last sample of day d-1 arrives,
// over the identical history window batch Predict uses — Forecast is
// pure, so the incrementally built rows are bit-identical to the
// batch set. Each day is forecast straight into the feed's own
// prediction rows. A nil predictor is the oracle: as in batch Predict,
// its prediction rows view the evaluation window of the feed's trace,
// so observed samples are the predictions without a copy.
type LiveFeed struct {
	mu sync.Mutex

	tr   *trace.Trace
	ps   *PredictionSet
	pred forecast.Predictor

	historyDays, evalDays int
	evalSlots             int
	ingested              int // evaluation slots observed so far
	predDays              int // evaluation days with final prediction rows
}

// NewLiveFeed builds a feed for historyDays+evalDays of the base
// trace's VM population: the history window (VM identity, classes and
// the first historyDays of samples) is copied out of base; the
// evaluation region starts empty and fills through Observe. The base
// trace must cover the history window and is never retained.
func NewLiveFeed(base *trace.Trace, pred forecast.Predictor, historyDays, evalDays int) (*LiveFeed, error) {
	if historyDays <= 0 || evalDays <= 0 {
		return nil, fmt.Errorf("dcsim: historyDays (%d) and evalDays (%d) must be positive", historyDays, evalDays)
	}
	if base == nil || len(base.VMs) == 0 {
		return nil, errors.New("dcsim: live feed needs a base trace with at least one VM")
	}
	hist := historyDays * trace.SamplesPerDay
	if base.Samples() < hist {
		return nil, fmt.Errorf("dcsim: base trace has %d samples, live feed needs %d of history", base.Samples(), hist)
	}
	total := (historyDays + evalDays) * trace.SamplesPerDay
	f := &LiveFeed{
		tr:          &trace.Trace{Interval: base.Interval, VMs: make([]*trace.VM, len(base.VMs))},
		pred:        pred,
		historyDays: historyDays,
		evalDays:    evalDays,
		evalSlots:   evalDays * trace.SamplesPerDay / trace.SamplesPerSlot,
	}
	f.ps = &PredictionSet{
		Predictor: "oracle",
		CPU:       make([][]float64, len(base.VMs)),
		Mem:       make([][]float64, len(base.VMs)),
	}
	for v, vm := range base.VMs {
		nv := *vm
		nv.CPU = make([]float64, total)
		nv.Mem = make([]float64, total)
		copy(nv.CPU, vm.CPU[:hist])
		copy(nv.Mem, vm.Mem[:hist])
		f.tr.VMs[v] = &nv
		if pred == nil {
			f.ps.CPU[v] = nv.CPU[hist:total:total]
			f.ps.Mem[v] = nv.Mem[hist:total:total]
		} else {
			f.ps.CPU[v] = make([]float64, total-hist)
			f.ps.Mem[v] = make([]float64, total-hist)
		}
	}
	if pred != nil {
		f.ps.Predictor = pred.Name()
		// Day 0 needs history only — forecast it now, exactly the
		// first window batch Predict uses.
		if err := f.forecastDay(0); err != nil {
			return nil, err
		}
		f.predDays = 1
	}
	return f, nil
}

// Trace returns the feed's private trace. It is owned by the feed —
// Observe writes its evaluation region — and must only be consumed
// through a Stepper gated by the feed itself.
func (f *LiveFeed) Trace() *trace.Trace { return f.tr }

// Predictions returns the feed's private prediction set, under the
// same ownership rule as Trace.
func (f *LiveFeed) Predictions() *PredictionSet { return f.ps }

// Ingested returns how many evaluation slots have been observed.
func (f *LiveFeed) Ingested() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ingested
}

// SlotReady implements SlotSource: slot s is simulatable once it has
// been observed (prediction days complete strictly before the actuals
// that finish them, so no separate prediction check is needed).
func (f *LiveFeed) SlotReady(s int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return s < f.ingested
}

// Observe ingests evaluation slot slot: cpu[v] and mem[v] are VM v's
// 12 five-minute samples in percent. Validation mirrors the CSV
// ingester: slots arrive strictly in order (ErrObserveOrder
// otherwise), every VM reports exactly trace.SamplesPerSlot samples,
// and values lie in [0, 100]. On success the slot becomes SlotReady
// and any prediction day it completes is forecast; on error nothing
// is ingested.
func (f *LiveFeed) Observe(slot int, cpu, mem [][]float64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if slot >= f.evalSlots {
		return fmt.Errorf("dcsim: observed slot %d outside the %d-slot evaluation horizon", slot, f.evalSlots)
	}
	if slot != f.ingested {
		return fmt.Errorf("dcsim: %w: observed slot %d, want %d", ErrObserveOrder, slot, f.ingested)
	}
	if len(cpu) != len(f.tr.VMs) || len(mem) != len(f.tr.VMs) {
		return fmt.Errorf("dcsim: observed slot covers %d cpu / %d mem VMs, trace has %d",
			len(cpu), len(mem), len(f.tr.VMs))
	}
	for v := range cpu {
		if len(cpu[v]) != trace.SamplesPerSlot || len(mem[v]) != trace.SamplesPerSlot {
			return fmt.Errorf("dcsim: VM %d reports %d cpu / %d mem samples, want %d per slot",
				v, len(cpu[v]), len(mem[v]), trace.SamplesPerSlot)
		}
		for i := 0; i < trace.SamplesPerSlot; i++ {
			// The negated comparison also rejects NaN.
			if !(cpu[v][i] >= 0 && cpu[v][i] <= 100) {
				return fmt.Errorf("dcsim: VM %d cpu sample %d out of range [0,100]: %v", v, i, cpu[v][i])
			}
			if !(mem[v][i] >= 0 && mem[v][i] <= 100) {
				return fmt.Errorf("dcsim: VM %d mem sample %d out of range [0,100]: %v", v, i, mem[v][i])
			}
		}
	}

	abs := f.historyDays*trace.SamplesPerDay + slot*trace.SamplesPerSlot
	for v := range cpu {
		copy(f.tr.VMs[v].CPU[abs:abs+trace.SamplesPerSlot], cpu[v])
		copy(f.tr.VMs[v].Mem[abs:abs+trace.SamplesPerSlot], mem[v])
	}

	// Commit the slot only after every newly due prediction day is
	// forecast, so a Forecast failure leaves the slot un-ingested (and
	// the stepper gated) instead of releasing it with zero predictions.
	next := f.ingested + 1
	if f.pred != nil {
		for f.predDays < f.evalDays && next*trace.SamplesPerSlot >= f.predDays*trace.SamplesPerDay {
			if err := f.forecastDay(f.predDays); err != nil {
				return err
			}
			f.predDays++
		}
	}
	f.ingested = next
	return nil
}

// forecastDay fills prediction day d from the same rolling history
// window batch Predict uses. Caller holds mu (or is the constructor).
func (f *LiveFeed) forecastDay(d int) error {
	for v, vm := range f.tr.VMs {
		if err := forecastDays(f.ps.CPU[v], f.ps.Mem[v], vm, f.pred, f.historyDays, d, d+1); err != nil {
			return fmt.Errorf("dcsim: VM %d: %w", v, err)
		}
	}
	return nil
}
