package dcsim

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/alloc"
	"repro/internal/power"
)

// windowRecorder is a LookaheadPolicy that records its window and
// checks, on every call, that the window packs the slot the stepper is
// stepping exactly as the stepper packed it. failAt, when positive,
// fails that call (1-based).
type windowRecorder struct {
	alloc.Policy
	t         *testing.T
	win       *Window
	offers    int
	withdraws int
	calls     int
	failAt    int
	buf       SlotDemands
}

func (r *windowRecorder) Offer(w *Window) { r.offers++; r.win = w }

func (r *windowRecorder) Withdraw(w *Window) {
	if w != r.win {
		r.t.Error("withdrew a window that was never offered")
	}
	r.withdraws++
}

func (r *windowRecorder) Allocate(vms []alloc.VMDemand, spec alloc.ServerSpec) (*alloc.Assignment, error) {
	r.calls++
	if r.win != nil {
		if got := r.win.Demands(r.win.Next(), &r.buf); !reflect.DeepEqual(got, vms) {
			r.t.Errorf("call %d: the window packs slot %d unlike the stepper", r.calls, r.win.Next())
		}
		if r.win.Spec != spec {
			r.t.Errorf("call %d: window spec %+v, stepper passes %+v", r.calls, r.win.Spec, spec)
		}
	}
	if r.calls == r.failAt {
		return nil, errors.New("injected failure")
	}
	return r.Policy.Allocate(vms, spec)
}

// TestStepperOffersItsWindow pins the lookahead contract of a Stepper:
// one window per stepper, spanning its slots and packing each slot as
// the stepper does, withdrawn when the stepper finishes or fails; none
// for a stepper gated by a live feed, and none for a clone.
func TestStepperOffersItsWindow(t *testing.T) {
	tr := testTrace(t, 20)
	ps := oracle(t, tr)
	rec := func(failAt int) *windowRecorder {
		return &windowRecorder{Policy: &alloc.EPACT{Model: power.NTCServer()}, t: t, failAt: failAt}
	}

	t.Run("finish", func(t *testing.T) {
		r := rec(0)
		cfg := testConfig(t, tr, r, ps)
		cfg.StartSlot, cfg.NumSlots = 5, 10
		st, err := NewStepper(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r.offers != 1 || r.win.First != 5 || r.win.Last != 15 || r.win.Next() != 5 || r.win.VMs() != 20 {
			t.Fatalf("offers %d, window [%d, %d) next %d over %d VMs; want one [5, 15) at 5 over 20",
				r.offers, r.win.First, r.win.Last, r.win.Next(), r.win.VMs())
		}
		// A clone steps on its own: it offers nothing and leaves the
		// original's window where the original is.
		c := st.Clone(rec(0))
		for !c.Done() {
			if _, err := c.Step(); err != nil {
				t.Fatal(err)
			}
		}
		if r.offers != 1 || r.withdraws != 0 || r.win.Next() != 5 {
			t.Fatalf("stepping a clone moved the original's window: %d offers, %d withdrawals, next %d",
				r.offers, r.withdraws, r.win.Next())
		}
		for !st.Done() {
			if r.withdraws != 0 {
				t.Fatal("window withdrawn before the stepper finished")
			}
			if _, err := st.Step(); err != nil {
				t.Fatal(err)
			}
		}
		if r.withdraws != 1 || r.win.Next() != r.win.Last || r.calls != 10 {
			t.Fatalf("after the window: %d withdrawals, next %d, %d calls; want 1, %d, 10",
				r.withdraws, r.win.Next(), r.calls, r.win.Last)
		}
	})

	t.Run("fail", func(t *testing.T) {
		r := rec(3)
		st, err := NewStepper(testConfig(t, tr, r, ps))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if _, err := st.Step(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := st.Step(); err == nil {
			t.Fatal("injected failure did not fail the step")
		}
		if r.withdraws != 1 || r.win.Next() != r.win.Last {
			t.Fatalf("a failed stepper left its window open: %d withdrawals, next %d", r.withdraws, r.win.Next())
		}
	})

	t.Run("live", func(t *testing.T) {
		feed, err := NewLiveFeed(tr, nil, 7, 2)
		if err != nil {
			t.Fatal(err)
		}
		r := rec(0)
		cfg := testConfig(t, feed.Trace(), r, feed.Predictions())
		cfg.Source = feed
		if _, err := NewStepper(cfg); err != nil {
			t.Fatal(err)
		}
		if r.offers != 0 {
			t.Fatalf("a live-feed stepper offered %d windows", r.offers)
		}
	})
}
