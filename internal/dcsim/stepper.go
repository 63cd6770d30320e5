package dcsim

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/trace"
)

// Stepper advances a simulation one slot at a time. It holds what
// every Step shares, built once at construction: the DVFS-level
// lookup tables it replays on (see Tables; shared, not owned), the
// slot window and the reusable scratch buffers that keep the
// steady-state slot loop allocation-free. Step returns each slot's
// result and keeps none; the caller folds them (the fleet stepper in
// internal/topology is the one fold).
// Once the last slot is stepped, the step buffers go to the next
// stepper built: a fleet's next epoch on the same tables, or any
// stepper through a pool (see release).
//
// This is the incremental primitive the live fleet service
// (internal/serve) ticks: a daemon that replays a trace slot by slot
// holds one Stepper per datacenter and calls Step on every tick,
// paying the per-run table construction once instead of once per
// slot. The StartSlot/NumSlots/InitialActiveServers window knobs in
// Config apply unchanged — a Stepper over a window steps exactly that
// window.
//
// A Stepper without a Config.Source offers its window to a policy
// that implements LookaheadPolicy, which may then allocate upcoming
// slots ahead of it; the stepper withdraws the window once it finishes
// or fails. A live feed's stepper never offers its window: its later
// slots' predictions do not exist yet.
//
// A Stepper is not safe for concurrent use; callers serialise Step
// (the service steps under its own lock).
type Stepper struct {
	cfg Config
	t   *Tables

	evalStart int
	sampleSec float64
	first     int
	last      int
	next      int

	// win is the window offered to the policy; nil when none is open.
	win *Window

	// b holds the buffers the slot loop refills (see stepBufs). It
	// comes from the tables' spare or bufPool and goes back when the
	// stepper's window is done; handoff sends it to the spare.
	b       *stepBufs
	handoff bool

	// resident is b's resident-set buffer, sized to the run's VMs; nil
	// when transitions are disabled.
	resident []float64

	// Columnar replay scratch: per-sample aggregates of one server's
	// slot window, rebuilt per server from flat trace rows.
	classCPU [numClasses][trace.SamplesPerSlot]float64
	cpuTotal [trace.SamplesPerSlot]float64
	memTotal [trace.SamplesPerSlot]float64

	// asg is the Assignment the next step's policy fills in place, and
	// prev the previous slot's, which transition pricing reads while
	// asg is filled; step swaps the two. prev means nothing until
	// hasPrev (the first slot has no previous one). Both point into b.
	asg, prev *alloc.Assignment
	hasPrev   bool
}

// NewStepper validates cfg and builds a stepper on t without
// simulating any slot: the stepper replays on t's server model and
// platform and shares t's lookup tables. A fleet steps every epoch of
// a datacenter on one Tables.
func (t *Tables) NewStepper(cfg Config) (*Stepper, error) {
	if err := validate(&cfg); err != nil {
		return nil, err
	}
	slots := cfg.EvalDays * trace.SamplesPerDay / trace.SamplesPerSlot
	first, last := cfg.StartSlot, slots
	if cfg.NumSlots > 0 {
		last = first + cfg.NumSlots
	}
	st := &Stepper{
		cfg:       cfg,
		t:         t,
		evalStart: cfg.HistoryDays * trace.SamplesPerDay,
		sampleSec: cfg.Trace.Interval.Seconds(),
		first:     first,
		last:      last,
		next:      first,
		b:         t.takeBufs(),
		handoff:   last < slots,
	}
	st.bind()
	if lp, ok := cfg.Policy.(LookaheadPolicy); ok && cfg.Source == nil && !st.Done() {
		st.win = &Window{First: first, Last: last, Spec: t.spec, pred: cfg.Predictions}
		st.win.next.Store(int64(first))
		lp.Offer(st.win)
	}
	return st, nil
}

// withdraw closes the offered window, if one is open.
func (st *Stepper) withdraw() {
	if st.win == nil {
		return
	}
	st.win.next.Store(int64(st.win.Last))
	st.cfg.Policy.(LookaheadPolicy).Withdraw(st.win)
	st.win = nil
}

// Slots returns how many slots the stepper's window spans in total.
func (st *Stepper) Slots() int { return st.last - st.first }

// Done reports whether every slot of the window has been stepped.
func (st *Stepper) Done() bool { return st.next >= st.last }

// Step simulates the next slot of the window and returns its result.
// Stepping past the window is an error, as is any simulation failure
// (the stepper is then poisoned — a slot cannot be retried, because
// the slot loop's carried state has already advanced). The one
// retryable refusal is a gated slot: with a Config.Source that has
// not released the next slot, Step returns an error wrapping
// ErrAwaitingSamples and advances nothing.
func (st *Stepper) Step() (SlotResult, error) {
	if st.Done() {
		return SlotResult{}, fmt.Errorf("dcsim: stepper exhausted: all %d slots of window [%d, %d) stepped",
			st.Slots(), st.first, st.last)
	}
	if src := st.cfg.Source; src != nil && !src.SlotReady(st.next) {
		return SlotResult{}, fmt.Errorf("dcsim: slot %d: %w", st.next, ErrAwaitingSamples)
	}
	slot, err := st.step(st.next)
	if err != nil {
		st.withdraw()
		return SlotResult{}, err
	}
	st.next++
	if st.win != nil {
		st.win.next.Store(int64(st.next))
	}
	if st.Done() {
		st.withdraw()
		st.release()
	}
	return slot, nil
}

// Clone returns an independent stepper carrying this one's state: the
// clone resumes at the same next slot with the same transition
// continuity (a deep copy of the previous assignment), and stepping
// it never affects the original, nor stepping the original it. pol,
// when non-nil, replaces the allocation policy — callers that step
// original and clone concurrently must pass a fresh instance, since
// policies are not required to allocate concurrently. The registered
// policies derive each slot's allocation from that slot's demand
// alone, so a fresh instance continues bit-exactly (the
// window-concatenation property the stepper tests pin).
//
// The tables and the trace and prediction rows are shared; the step
// buffers are fresh — they are rebuilt on every step — except the
// previous assignment, deep-copied for transition continuity. A clone
// offers no lookahead window: the original's window, if open, stays
// the original's.
func (st *Stepper) Clone(pol alloc.Policy) *Stepper {
	c := *st
	if pol != nil {
		c.cfg.Policy = pol
	}
	c.win = nil
	c.b = new(stepBufs)
	c.bind()
	if st.hasPrev {
		c.prev.CopyFrom(st.prev)
	}
	return &c
}
