// Package workload defines the virtualised applications of the study:
// LXC-containerised batch jobs resembling banking applications,
// profiled into three classes by per-VM memory utilisation exactly as
// in Section III-B of the paper — low-mem (70 MB, 7%), mid-mem
// (255 MB, 25%) and high-mem (435 MB, 43%) — all tuned to maximum CPU
// utilisation for the worst-case server-level experiments.
package workload

import (
	"fmt"

	"repro/internal/units"
)

// Class identifies one of the paper's three profiled workload classes.
type Class int

// The three classes of Section III-B.
const (
	LowMem Class = iota
	MidMem
	HighMem
	numClasses
)

// Classes lists all classes in presentation order (Table I order).
func Classes() []Class { return []Class{LowMem, MidMem, HighMem} }

func (c Class) String() string {
	switch c {
	case LowMem:
		return "low-mem"
	case MidMem:
		return "mid-mem"
	case HighMem:
		return "high-mem"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Spec describes one VM-class's resource behaviour. The memory sizes
// and percentages are the paper's; the instruction counts and memory
// intensities are the free parameters of the performance model, fitted
// so the NTC server reproduces Table I and the Fig. 2 QoS crossovers
// (see internal/platform for the per-platform calibration cells).
type Spec struct {
	Class Class

	// MemFootprint is the average resident memory of one VM
	// (70/255/435 MB); MemPercent is the same as a percentage of the
	// 1 GB VM container (7/25/43%).
	MemFootprint units.ByteSize
	MemPercent   units.Percent

	// Instructions is the number of user instructions one VM job
	// executes. Derived from the Table I execution-time system of
	// equations with the common A57 base CPI of 1.12 (all three
	// classes fit the same base CPI on the NTC server, which supports
	// the fit):
	//   I = C_exe / CPI, with C_exe from Table I + Fig. 2 crossovers.
	Instructions float64

	// MPKI is the LLC misses per kilo-instruction on the NTC server's
	// 16 MB LLC, back-derived from the fitted memory-stall time
	// T_mem = I · MPKI/1000 · 75 ns.
	MPKI float64

	// LLCAPKI is LLC accesses (L1 misses) per kilo-instruction; the
	// conventional ~3x ratio of LLC lookups to LLC misses is used.
	LLCAPKI float64

	// WriteFraction is the fraction of DRAM traffic that is writes.
	WriteFraction float64

	// HotSet is the cache-resident working set used by the
	// mechanistic cache model (the job's hot data region, a fraction
	// of the full footprint).
	HotSet units.ByteSize
}

// specs holds the three calibrated class descriptions, indexed by Class.
var specs = [numClasses]Spec{
	LowMem: {
		Class:         LowMem,
		MemFootprint:  units.MiB(70),
		MemPercent:    7,
		Instructions:  0.78e9,
		MPKI:          2.49,
		LLCAPKI:       7.5,
		WriteFraction: 0.30,
		HotSet:        units.MiB(2),
	},
	MidMem: {
		Class:         MidMem,
		MemFootprint:  units.MiB(255),
		MemPercent:    25,
		Instructions:  3.23e9,
		MPKI:          4.61,
		LLCAPKI:       14,
		WriteFraction: 0.30,
		HotSet:        units.MiB(4),
	},
	HighMem: {
		Class:         HighMem,
		MemFootprint:  units.MiB(435),
		MemPercent:    43,
		Instructions:  2.31e9,
		MPKI:          31.6,
		LLCAPKI:       95,
		WriteFraction: 0.30,
		HotSet:        units.MiB(6),
	},
}

// Get returns the calibrated spec for class c.
func Get(c Class) Spec {
	if c < 0 || c >= numClasses {
		panic(fmt.Sprintf("workload: unknown class %d", int(c)))
	}
	return specs[c]
}
