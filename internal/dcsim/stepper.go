package dcsim

import (
	"fmt"

	"repro/internal/alloc"
)

// Stepper advances a simulation one slot at a time over run-scoped
// state built once at construction and shared by every Step: the
// DVFS-level lookup tables (see Tables), the packed prediction
// windows and the reusable scratch buffers. Step returns each slot's
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
	cfg  Config
	st   *runState
	next int

	// win is the window offered to the policy; nil when none is open.
	win *Window
}

// NewStepper validates cfg and builds a stepper on t without
// simulating any slot: the stepper replays on t's server model and
// platform and shares t's lookup tables. A fleet steps every epoch of
// a datacenter on one Tables.
func (t *Tables) NewStepper(cfg Config) (*Stepper, error) {
	s := &Stepper{cfg: cfg}
	st, err := newRunState(&s.cfg, t)
	if err != nil {
		return nil, err
	}
	s.st = st
	s.next = st.first
	if lp, ok := cfg.Policy.(LookaheadPolicy); ok && cfg.Source == nil && !s.Done() {
		s.win = &Window{First: st.first, Last: st.last, Spec: st.spec, pred: cfg.Predictions}
		s.win.next.Store(int64(st.first))
		lp.Offer(s.win)
	}
	return s, nil
}

// withdraw closes the offered window, if one is open.
func (s *Stepper) withdraw() {
	if s.win == nil {
		return
	}
	s.win.next.Store(int64(s.win.Last))
	s.cfg.Policy.(LookaheadPolicy).Withdraw(s.win)
	s.win = nil
}

// Slots returns how many slots the stepper's window spans in total.
func (s *Stepper) Slots() int { return s.st.last - s.st.first }

// Done reports whether every slot of the window has been stepped.
func (s *Stepper) Done() bool { return s.next >= s.st.last }

// Step simulates the next slot of the window and returns its result.
// Stepping past the window is an error, as is any simulation failure
// (the stepper is then poisoned — a slot cannot be retried, because
// the slot loop's carried state has already advanced). The one
// retryable refusal is a gated slot: with a Config.Source that has
// not released the next slot, Step returns an error wrapping
// ErrAwaitingSamples and advances nothing.
func (s *Stepper) Step() (SlotResult, error) {
	if s.Done() {
		return SlotResult{}, fmt.Errorf("dcsim: stepper exhausted: all %d slots of window [%d, %d) stepped",
			s.Slots(), s.st.first, s.st.last)
	}
	if src := s.cfg.Source; src != nil && !src.SlotReady(s.next) {
		return SlotResult{}, fmt.Errorf("dcsim: slot %d: %w", s.next, ErrAwaitingSamples)
	}
	slot, err := s.st.step(s.next)
	if err != nil {
		s.withdraw()
		return SlotResult{}, err
	}
	s.next++
	if s.win != nil {
		s.win.next.Store(int64(s.next))
	}
	if s.Done() {
		s.withdraw()
		s.st.release()
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
// Immutable run state (DVFS-level tables, the trace and prediction
// rows) is shared; the scratch buffers are rebuilt. A clone offers no
// lookahead window: the original's window, if open, stays the
// original's.
func (s *Stepper) Clone(pol alloc.Policy) *Stepper {
	c := &Stepper{cfg: s.cfg, next: s.next}
	if pol != nil {
		c.cfg.Policy = pol
	}
	c.st = s.st.clone(&c.cfg)
	return c
}
