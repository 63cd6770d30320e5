package dcsim

import (
	"weak"

	"repro/internal/trace"
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
// tests that measure one step at a time: it empties the run's result
// list first and returns the slot's result.
func StepSlot(st *Stepper, s int) (SlotResult, error) {
	st.st.slots = st.st.slots[:0]
	if err := st.st.step(s); err != nil {
		return SlotResult{}, err
	}
	return st.st.slots[0], nil
}

// NewStepper validates cfg and builds the run state (lookup tables,
// scratch buffers) without simulating any slot.
func NewStepper(cfg Config) (*Stepper, error) { return newStepper(cfg, nil) }
