package dcsim

import (
	"sync/atomic"

	"repro/internal/alloc"
	"repro/internal/trace"
)

// LookaheadPolicy is a policy that can allocate a stepper's upcoming
// slots before the stepper reaches them. Every planning input of a
// window is known when it opens — the prediction set covers the whole
// evaluation period — so any slot's allocation can be computed early.
// A Stepper without a Config.Source offers its window to such a policy
// when it is built and withdraws it once it finishes or fails; the
// policy decides whether anyone allocates ahead. Whatever it computes
// must be what Allocate would return for the same input, so lookahead
// changes when work happens, never a result.
type LookaheadPolicy interface {
	alloc.Policy
	Offer(w *Window)
	Withdraw(w *Window)
}

// Window is the view of a stepper's slot window [First, Last) that a
// LookaheadPolicy receives. Its fields are read-only and its methods
// are safe for concurrent use.
type Window struct {
	First, Last int

	// Spec is the ServerSpec the stepper passes to Allocate.
	Spec alloc.ServerSpec

	pred *PredictionSet
	next atomic.Int64
}

// Next returns the stepper's next slot: every slot below it has been
// stepped, and Next itself may be in progress. It is Last once the
// window is withdrawn.
func (w *Window) Next() int { return int(w.next.Load()) }

// VMs returns how many VMs each of the window's slots allocates.
func (w *Window) VMs() int { return len(w.pred.CPU) }

// Demands packs slot s's allocation input into d, exactly as the
// stepper packs it for its own Allocate call, and returns it.
func (w *Window) Demands(s int, d *SlotDemands) []alloc.VMDemand { return d.fill(w.pred, s) }

// SlotDemands is a reusable buffer for one slot's allocation input:
// the demand headers and the predicted windows they view.
type SlotDemands struct {
	vms      []alloc.VMDemand
	cpu, mem []float64
}

// fill packs evaluation slot s of p into d and returns the demands,
// valid until the next fill. The prediction rows span the whole
// evaluation period, so slot windows sit ~2 KB apart; packing them
// back to back keeps the allocator's many scans over the same VMs ×
// 12 samples cache-resident. Values are copied verbatim, so
// allocations are bit-identical. The copy also means pooled step
// buffers never point into prediction rows or the trace: a variant
// whose demands viewed the rows in place cut policy-grid CPU by about
// 5%, but the pool then kept the previous run's trace alive, and
// policy-grid's max_rss_mb rose from 89 to 152-157 MB (3 of 3 runs).
func (d *SlotDemands) fill(p *PredictionSet, s int) []alloc.VMDemand {
	n := len(p.CPU)
	if cap(d.vms) < n {
		d.vms = make([]alloc.VMDemand, n)
		d.cpu = make([]float64, n*trace.SamplesPerSlot)
		d.mem = make([]float64, n*trace.SamplesPerSlot)
	}
	d.vms = d.vms[:n]
	lo := s * trace.SamplesPerSlot
	hi := lo + trace.SamplesPerSlot
	for v := range d.vms {
		cpuRow := d.cpu[v*trace.SamplesPerSlot : (v+1)*trace.SamplesPerSlot]
		memRow := d.mem[v*trace.SamplesPerSlot : (v+1)*trace.SamplesPerSlot]
		copy(cpuRow, p.CPU[v][lo:hi])
		copy(memRow, p.Mem[v][lo:hi])
		d.vms[v] = alloc.VMDemand{ID: v, CPU: cpuRow, Mem: memRow}
	}
	return d.vms
}
