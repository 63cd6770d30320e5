package power

import (
	"math"

	"repro/internal/fdsoi"
	"repro/internal/units"
)

// OperatingPoint captures everything the server power model needs
// about one observation window: the DVFS point, how many
// core-equivalents are busy, how much of the busy time stalls on
// memory, and the cache/DRAM traffic.
type OperatingPoint struct {
	// Freq is the uniform clock of all cores (one voltage/frequency
	// domain per server, as in the paper's target architecture).
	Freq units.Frequency

	// BusyCores is the number of core-equivalents executing VMs
	// (0..Cores; fractional values represent partially loaded cores).
	BusyCores float64

	// WFMFraction is the fraction of busy-core time spent in the
	// wait-for-memory state.
	WFMFraction float64

	// LLCReadsPerSec and LLCWritesPerSec are LLC access rates.
	LLCReadsPerSec, LLCWritesPerSec float64

	// MemReadBytesPerSec and MemWriteBytesPerSec are DRAM traffic.
	MemReadBytesPerSec, MemWriteBytesPerSec float64
}

// ServerModel aggregates the four contributor models of Section IV
// into a whole-server power model.
type ServerModel struct {
	Name  string
	Cores int
	Tech  *fdsoi.Tech

	Core   CoreModel
	LLC    LLCModel
	Uncore UncoreModel
	DRAM   DRAMModel

	// Motherboard is the fixed platform power (fans, SSD, PSU
	// overhead): 15 W for the NTC server per the paper. Fig. 7 sweeps
	// this "static power" between 5 and 45 W.
	Motherboard units.Power

	// FMin and FMax delimit the server's DVFS range; DVFSStep is the
	// granularity of the available frequency levels.
	FMin, FMax units.Frequency
	DVFSStep   units.Frequency
}

// Power returns the total server power at the given operating point:
// the level evaluator at op.Freq (clamped into [FMin, FMax], not
// snapped to a DVFS level) applied to op's load. The formula itself
// lives in LevelPower.Evaluate alone.
func (s *ServerModel) Power(op OperatingPoint) units.Power {
	lp := s.LevelPowerAt(op.Freq)
	return lp.Evaluate(op.BusyCores, op.WFMFraction, op.LLCReadsPerSec, op.LLCWritesPerSec,
		op.MemReadBytesPerSec, op.MemWriteBytesPerSec)
}

// CPUBoundPower returns server power with all cores busy on a
// CPU-bound workload (no memory stalls, no DRAM traffic): the Fig. 1
// scenario.
func (s *ServerModel) CPUBoundPower(f units.Frequency) units.Power {
	return s.Power(OperatingPoint{Freq: f, BusyCores: float64(s.Cores)})
}

// IdlePower returns the power of a switched-on but empty server
// parked at frequency f.
func (s *ServerModel) IdlePower(f units.Frequency) units.Power {
	return s.Power(OperatingPoint{Freq: f})
}

// IdlePeakScore returns 1 − IdlePower(FMin)/CPUBoundPower(FMax): one
// minus the ratio of an empty switched-on server's power at its lowest
// DVFS level to its all-cores-busy power at its highest. A server that
// draws nothing idle scores 1; one that idles at its peak scores 0.
// Greedy-proportional dispatch fills DCs in descending score, and the
// paper's NTC server scores above the conventional E5.
func (s *ServerModel) IdlePeakScore() float64 {
	peak := s.CPUBoundPower(s.FMax).W()
	if peak <= 0 {
		return 0
	}
	return 1 - s.IdlePower(s.FMin).W()/peak
}

// PowerPerGHz returns P_cpubound(f)/f in watts per GHz: the
// power cost per unit of delivered clock rate. Its argmin over f is
// the server's most energy-proportional operating frequency.
func (s *ServerModel) PowerPerGHz(f units.Frequency) float64 {
	return float64(s.CPUBoundPower(f)) / f.GHz()
}

// OptimalFrequency returns the DVFS level minimising PowerPerGHz: the
// F_opt^NTC of the paper (≈1.9 GHz for the NTC server, F_max for the
// conventional server). It requires a non-empty DVFSGrid.
func (s *ServerModel) OptimalFrequency() units.Frequency {
	levels := s.DVFSGrid()
	best := levels[0]
	bestV := s.PowerPerGHz(best)
	for _, f := range levels[1:] {
		if v := s.PowerPerGHz(f); v < bestV {
			best, bestV = f, v
		}
	}
	return best
}

// ClampFrequency snaps f into the server's DVFS range and up to the
// next available level. It requires a positive DVFSStep.
func (s *ServerModel) ClampFrequency(f units.Frequency) units.Frequency {
	if f <= s.FMin {
		return s.FMin
	}
	if f >= s.FMax {
		return s.FMax
	}
	// Round up to the next DVFS level so the delivered clock always
	// meets the requested rate.
	steps := math.Ceil((f.GHz() - s.FMin.GHz()) / s.DVFSStep.GHz())
	lvl := s.FMin + units.Frequency(steps)*s.DVFSStep
	if lvl > s.FMax {
		lvl = s.FMax
	}
	return lvl
}

// NTCServer builds the paper's proposed NTC server: 16 Cortex-A57
// class OoO cores in 28nm UTBB FD-SOI, 16 MB LLC, 16 GB DDR4-2400,
// with the published uncore/DRAM/motherboard constants.
func NTCServer() *ServerModel {
	tech := fdsoi.FDSOI28()
	return &ServerModel{
		Name:  "NTC-16xA57-FDSOI28",
		Cores: 16,
		Tech:  tech,
		Core: CoreModel{
			Tech: tech,
			// See CoreModel.DynPerGHzNom: fitted so argmin P(f)/f = 1.9 GHz.
			DynPerGHzNom: 0.567,
			LeakNom:      0.020,
			WFMFactor:    0.76,
			IdleFraction: 0.08,
		},
		LLC: LLCModel{
			Tech:            tech,
			Blocks:          64, // 16 MB / 256 KB
			LeakPerBlockNom: 0.006,
			ReadEnergyNom:   60 * units.Picojoule,
			WriteEnergyNom:  75 * units.Picojoule,
		},
		Uncore: UncoreModel{
			Const:   11.84,
			PropMin: 1.6,
			PropMax: 9,
			FMin:    units.GHz(0.1),
			FMax:    units.GHz(3.1),
		},
		DRAM: DRAMModel{
			Capacity:      units.GiB(16),
			IdlePerGB:     15.5 * units.Milliwatt,
			ActivePerGB:   155 * units.Milliwatt,
			EnergyPerByte: 800 * units.Picojoule,
		},
		Motherboard: 15,
		FMin:        units.GHz(0.1),
		FMax:        units.GHz(3.1),
		DVFSStep:    units.MHz(100),
	}
}

// IntelE5_2620 builds the conventional (non-NTC) comparison server of
// Fig. 1b: a 6-core Intel E5-2620 class machine in bulk technology
// with a narrow DVFS range and a large static platform cost. Free
// parameters are set so the model reproduces the class's published
// envelope (~150 W full load, ~half of peak at idle) and the paper's
// observation that consolidation at F_max is its optimum.
func IntelE5_2620() *ServerModel {
	tech := fdsoi.Bulk32()
	return &ServerModel{
		Name:  "Intel-E5-2620-bulk32",
		Cores: 6,
		Tech:  tech,
		Core: CoreModel{
			Tech:         tech,
			DynPerGHzNom: 3.5, // C_eff·V_nom² per core at V_nom = 1.0 V
			LeakNom:      1.0,
			WFMFactor:    0.76,
			IdleFraction: 0.15,
		},
		LLC: LLCModel{
			Tech:            tech,
			Blocks:          60, // 15 MB / 256 KB
			LeakPerBlockNom: 0.030,
			ReadEnergyNom:   120 * units.Picojoule,
			WriteEnergyNom:  150 * units.Picojoule,
		},
		Uncore: UncoreModel{
			Const:   45,
			PropMin: 5,
			PropMax: 15,
			FMin:    units.GHz(1.2),
			FMax:    units.GHz(2.4),
		},
		DRAM: DRAMModel{
			Capacity:      units.GiB(16),
			IdlePerGB:     15.5 * units.Milliwatt,
			ActivePerGB:   155 * units.Milliwatt,
			EnergyPerByte: 800 * units.Picojoule,
		},
		Motherboard: 25,
		FMin:        units.GHz(1.2),
		FMax:        units.GHz(2.4),
		DVFSStep:    units.MHz(100),
	}
}
