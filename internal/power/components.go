package power

import (
	"repro/internal/fdsoi"
	"repro/internal/units"
)

// LLCModel describes the last-level cache power following Section
// IV-2: leakage measured per 256 KB SRAM block plus read/write energy
// per 128-bit access, both voltage dependent. The LLC is modelled on
// the same voltage rail as the cores.
type LLCModel struct {
	Tech *fdsoi.Tech

	// Blocks is the number of 256 KB SRAM blocks (64 for a 16 MB LLC).
	Blocks int

	// LeakPerBlockNom is the leakage of one 256 KB block at nominal
	// voltage.
	LeakPerBlockNom units.Power

	// ReadEnergyNom and WriteEnergyNom are per-access energies for
	// 128-bit accesses at nominal voltage.
	ReadEnergyNom, WriteEnergyNom units.Energy
}

// LeakagePower returns the whole LLC's leakage at frequency f's
// supply voltage.
func (m *LLCModel) LeakagePower(f units.Frequency) units.Power {
	return units.Power(float64(m.LeakPerBlockNom) * float64(m.Blocks) * m.Tech.LeakageScale(f))
}

// UncoreModel describes the memory controller, peripherals and IO
// subsystem following Section IV-3: a constant component (11.84 W on
// the measured Xeon v3) plus a component proportional to the operating
// condition (1.6 W at the bottom of the range up to 9 W at the top).
type UncoreModel struct {
	// Const is the fixed cost of keeping the subsystems on.
	Const units.Power

	// PropMin and PropMax bound the proportional component across the
	// operational frequency range [FMin, FMax].
	PropMin, PropMax units.Power
	FMin, FMax       units.Frequency
}

// Power returns the uncore power at frequency f, interpolating the
// proportional component linearly across the operational range.
func (m *UncoreModel) Power(f units.Frequency) units.Power {
	span := m.FMax.GHz() - m.FMin.GHz()
	t := 0.0
	if span > 0 {
		t = (f.GHz() - m.FMin.GHz()) / span
	}
	if t < 0 {
		t = 0
	}
	if t > 1 {
		t = 1
	}
	return m.Const + m.PropMin + units.Power(t*float64(m.PropMax-m.PropMin))
}

// DRAMModel describes the DRAM banks following Section IV-4: 15.5
// mW/GB idle standby power rising to 155 mW/GB with banks activated,
// plus 800 pJ per byte read.
type DRAMModel struct {
	Capacity units.ByteSize

	// IdlePerGB is the standby power per GB with all banks precharged.
	IdlePerGB units.Power

	// ActivePerGB is the standby power per GB with banks activated.
	ActivePerGB units.Power

	// EnergyPerByte is the access energy per byte transferred.
	EnergyPerByte units.Energy
}
