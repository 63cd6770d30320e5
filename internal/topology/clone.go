package topology

import (
	"fmt"
	"slices"
)

// Clone returns an independent stepper carrying this one's state: the
// clone resumes at the same next slot, with the same accumulated
// per-DC results, epoch machinery and carried power-on counts, and
// stepping it never affects the original — the primitive behind the
// live service's mid-replay what-if forks. Allocation policies are
// rebuilt fresh through cfg.NewPolicy against each DC's native model,
// exactly as the epoch was opened (instances are never shared, so
// original and clone may step concurrently); the registered policies
// derive each slot's allocation from that slot's demand alone, so the
// clone continues bit-exactly (the window-concatenation property the
// stepper tests pin).
//
// Shared read-only state (trace, predictions, resolved fleet, per-DC
// server models and DVFS tables) is aliased, and so are the current
// epoch's buffers (its dispatch and per-DC views), which the clone's
// DC steppers read until the epoch ends. Cloning marks those buffers
// shared on both sides, so whichever side opens its next epoch first
// opens it on buffers of its own and never overwrites what the other
// still reads (see epochBufs). Every mutable accumulator is
// deep-copied: the per-DC state as one slice of records, whose open
// DC steppers are then cloned.
func (st *Stepper) Clone() (*Stepper, error) {
	st.shared = true
	c := *st
	res := *st.res
	res.DCs = slices.Clone(res.DCs)
	res.PerSlot = slices.Clone(res.PerSlot)
	c.res = &res
	c.prevDC = slices.Clone(st.prevDC)
	c.dcs = slices.Clone(st.dcs)
	for i := range c.dcs {
		ds := &c.dcs[i]
		if ds.sim == nil {
			continue
		}
		pol, err := st.cfg.NewPolicy(st.models[i].base)
		if err != nil {
			return nil, fmt.Errorf("topology: DC %q: %w", st.fleet.DCs[i].Name, err)
		}
		ds.sim = ds.sim.Clone(pol)
	}
	return &c, nil
}
