package dcsim

import (
	"weak"

	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/trace"
	"repro/internal/units"
)

// MemoisedUnder returns the live traces the validation memo holds an
// entry for whose root is root.
func MemoisedUnder(root *trace.Trace) []*trace.Trace {
	var out []*trace.Trace
	validatedTraces.Range(func(k, _ any) bool {
		if tr := k.(weak.Pointer[trace.Trace]).Value(); tr != nil && tr.Root() == root {
			out = append(out, tr)
		}
		return true
	})
	return out
}

// StepSlot steps slot s of st's run again from its carried state, for
// tests that measure one step at a time, and returns the slot's result.
func StepSlot(st *Stepper, s int) (SlotResult, error) { return st.st.step(s) }

// NewStepper builds a stepper for cfg on fresh tables of the NTC
// server against its platform, the machine testConfig describes.
func NewStepper(cfg Config) (*Stepper, error) {
	tb, err := NewTables(power.NTCServer(), platform.NTCServer())
	if err != nil {
		return nil, err
	}
	return tb.NewStepper(cfg)
}

// replayed is the tests' fold of a replay: every slot in order and
// the totals summed from them in slot order, from zero, as the fleet
// stepper sums a datacenter's epoch.
type replayed struct {
	Slots                              []SlotResult
	TotalEnergy, TotalTransitionEnergy units.Energy
	TotalViol, TotalMigrations         int
	MeanActive                         float64
	PeakActive                         int
}

// fold sums slots into a replayed.
func fold(slots []SlotResult) *replayed {
	r := &replayed{Slots: slots}
	var activeSum int
	for _, s := range slots {
		r.TotalEnergy += s.Energy
		r.TotalTransitionEnergy += s.TransitionEnergy
		r.TotalViol += s.Violations
		r.TotalMigrations += s.Migrations
		activeSum += s.ActiveServers
		r.PeakActive = max(r.PeakActive, s.ActiveServers)
	}
	if len(slots) > 0 {
		r.MeanActive = float64(activeSum) / float64(len(slots))
	}
	return r
}

// replay steps cfg's whole window on the NTC server (see NewStepper)
// and folds it.
func replay(cfg Config) (*replayed, error) {
	st, err := NewStepper(cfg)
	if err != nil {
		return nil, err
	}
	return stepAll(st)
}

// stepAll steps st to the end of its window and folds its slots.
func stepAll(st *Stepper) (*replayed, error) {
	slots := make([]SlotResult, 0, st.Slots())
	for !st.Done() {
		slot, err := st.Step()
		if err != nil {
			return nil, err
		}
		slots = append(slots, slot)
	}
	return fold(slots), nil
}
