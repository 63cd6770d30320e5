package power

import (
	"math"

	"repro/internal/units"
)

// DVFSGrid enumerates exactly the frequencies ClampFrequency can
// return: FMin, FMin + k·DVFSStep for k = 1.. computed with the same
// arithmetic ClampFrequency uses (one multiplication, never repeated
// addition, so the values are bit-identical), and FMax as the final
// level. The grid is what the data-center replay loop indexes its
// per-level observable and power tables by.
//
// A server without a positive DVFSStep has no grid: DVFSGrid returns
// nil, and the replay and EPACT reject the model.
func (s *ServerModel) DVFSGrid() []units.Frequency {
	if s.DVFSStep <= 0 || s.FMax < s.FMin {
		return nil
	}
	grid := []units.Frequency{s.FMin}
	for k := 1; ; k++ {
		lvl := s.FMin + units.Frequency(float64(k))*s.DVFSStep
		if lvl >= s.FMax {
			break
		}
		grid = append(grid, lvl)
	}
	if grid[len(grid)-1] != s.FMax {
		grid = append(grid, s.FMax)
	}
	return grid
}

// LevelIndex maps a requested frequency to its DVFS grid index such
// that DVFSGrid()[LevelIndex(f)] == ClampFrequency(f) bit-for-bit: it
// mirrors ClampFrequency's arithmetic (same early-outs, same Ceil
// expression) and only translates the resulting level into an index.
// gridLen must be len(DVFSGrid()), which must be non-empty.
func (s *ServerModel) LevelIndex(f units.Frequency, gridLen int) int {
	last := gridLen - 1
	if f <= s.FMin {
		return 0
	}
	if f >= s.FMax {
		return last
	}
	steps := math.Ceil((f.GHz() - s.FMin.GHz()) / s.DVFSStep.GHz())
	lvl := s.FMin + units.Frequency(steps)*s.DVFSStep
	if lvl > s.FMax {
		return last
	}
	k := int(steps)
	if k > last {
		// lvl is on the grid but at (or numerically beyond) the FMax
		// terminator; both hold the same frequency value.
		k = last
	}
	return k
}

// LevelPower caches the frequency-dependent terms of the server power
// model for one DVFS level, so the replay hot loop can price an
// operating point without re-evaluating the voltage/leakage curves at
// every 5-minute sample. Its Evaluate is the server power formula:
// ServerModel.Power prices through it too.
type LevelPower struct {
	// Per-core powers at the level's frequency (watts).
	active, wfmP, idle float64

	// LLC leakage at the level and the dynamic-energy scale applied to
	// per-access energies.
	llcLeak, llcScale float64

	// Per-access LLC energies at nominal voltage (joules).
	readE, writeE float64

	// Uncore power at the level (watts).
	uncore float64

	// DRAM standby powers (W/GB), capacity (GB) and access energy (J/B).
	dramIdle, dramActive, dramCapGB, dramEPerByte float64

	// Motherboard power and core count.
	motherboard float64
	cores       float64
}

// LevelPowerAt precomputes the power coefficients for frequency f
// (typically one DVFSGrid level), clamped into [FMin, FMax].
func (s *ServerModel) LevelPowerAt(f units.Frequency) LevelPower {
	if f < s.FMin {
		f = s.FMin
	}
	if f > s.FMax {
		f = s.FMax
	}
	return LevelPower{
		active:       float64(s.Core.ActivePower(f)),
		wfmP:         float64(s.Core.WFMPower(f)),
		idle:         float64(s.Core.IdlePower(f)),
		llcLeak:      float64(s.LLC.LeakagePower(f)),
		llcScale:     s.LLC.Tech.DynamicEnergyScale(f),
		readE:        float64(s.LLC.ReadEnergyNom),
		writeE:       float64(s.LLC.WriteEnergyNom),
		uncore:       float64(s.Uncore.Power(f)),
		dramIdle:     float64(s.DRAM.IdlePerGB),
		dramActive:   float64(s.DRAM.ActivePerGB),
		dramCapGB:    s.DRAM.Capacity.GB(),
		dramEPerByte: float64(s.DRAM.EnergyPerByte),
		motherboard:  float64(s.Motherboard),
		cores:        float64(s.Cores),
	}
}

// Evaluate returns the server power at the cached frequency for the
// given load: busy cores split between the active and wait-for-memory
// states plus clock-gated idle cores, LLC leakage and accesses, the
// uncore, DRAM standby (banks active under any traffic) and traffic,
// and the motherboard. Load is clamped to [0, cores] busy cores and a
// WFM fraction in [0, 1].
func (lp *LevelPower) Evaluate(busyCores, wfmFraction, llcReadsPerSec, llcWritesPerSec, memReadBytesPerSec, memWriteBytesPerSec float64) units.Power {
	busy := math.Min(math.Max(busyCores, 0), lp.cores)
	wfm := math.Min(math.Max(wfmFraction, 0), 1)

	cores := busy*((1-wfm)*lp.active+wfm*lp.wfmP) + (lp.cores-busy)*lp.idle
	llc := lp.llcLeak + (llcReadsPerSec*lp.readE+llcWritesPerSec*lp.writeE)*lp.llcScale
	uncore := lp.uncore

	standby := lp.dramIdle
	if memReadBytesPerSec > 0 || memWriteBytesPerSec > 0 {
		standby = lp.dramActive
	}
	dram := standby * lp.dramCapGB
	dram += (memReadBytesPerSec + memWriteBytesPerSec) * lp.dramEPerByte

	return units.Power(cores + llc + uncore + dram + lp.motherboard)
}
