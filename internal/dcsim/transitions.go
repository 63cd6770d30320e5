package dcsim

import (
	"repro/internal/alloc"
	"repro/internal/units"
)

// TransitionModel prices the state changes a per-slot re-allocation
// causes: servers powering on or off between slots and VM migrations.
// The paper's energy accounting ignores both (its related work —
// Ruan et al., Beloglazov et al. — optimises for them), so this is an
// extension knob: with the default zero model the simulator matches
// the paper; with realistic costs the EPACT-vs-consolidation gap can
// be re-examined under churn (an ablation in the experiments package).
type TransitionModel struct {
	// ServerOnEnergy is consumed every time an off server powers on
	// (boot + fan spin-up). A typical blade costs ~30 s at near-peak
	// power: ≈5 kJ.
	ServerOnEnergy units.Energy

	// ServerOffEnergy is the cost of an orderly shutdown.
	ServerOffEnergy units.Energy

	// MigrationEnergyPerByte prices the memory copy of a live
	// migration across the network (NIC + switch + source/dest CPU);
	// ≈0.5-1 nJ/B end-to-end on 10 GbE class fabrics.
	MigrationEnergyPerByte units.Energy
}

// ZeroTransitions returns the paper-faithful model (no costs).
func ZeroTransitions() TransitionModel { return TransitionModel{} }

// DefaultTransitions returns a realistic cost model for the extension
// experiments.
func DefaultTransitions() TransitionModel {
	return TransitionModel{
		ServerOnEnergy:         5 * units.Kilojoule,
		ServerOffEnergy:        1 * units.Kilojoule,
		MigrationEnergyPerByte: units.Energy(0.8e-9),
	}
}

// slotTransitionEnergy prices the change from the previous slot's
// assignment to the next one. initialActive seeds the first slot
// (prev == nil): the run starts with that many servers already on, so
// only the delta is billed — 0 reproduces the historical cold start,
// where every first-slot server pays the power-on cost. Migrations
// are never counted across a nil prev (the VM universe may differ).
// match is the run's migration matcher.
func (m TransitionModel) slotTransitionEnergy(match *alloc.MigrationMatcher, prev, next *alloc.Assignment, memBytes []float64, initialActive int) (units.Energy, alloc.MigrationStats) {
	var stats alloc.MigrationStats
	if prev == nil {
		on := 0
		if next != nil {
			on = next.ActiveServers()
		}
		var e float64
		if on > initialActive {
			e = float64(m.ServerOnEnergy) * float64(on-initialActive)
		} else if initialActive > on {
			e = float64(m.ServerOffEnergy) * float64(initialActive-on)
		}
		return units.Energy(e), stats
	}
	prevActive := prev.ActiveServers()
	nextActive := next.ActiveServers()
	var e float64
	if nextActive > prevActive {
		e += float64(m.ServerOnEnergy) * float64(nextActive-prevActive)
	} else if prevActive > nextActive {
		e += float64(m.ServerOffEnergy) * float64(prevActive-nextActive)
	}
	stats = match.Compare(prev, next, memBytes)
	e += float64(m.MigrationEnergyPerByte) * stats.BytesMoved
	return units.Energy(e), stats
}
