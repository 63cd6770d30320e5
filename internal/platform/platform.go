// Package platform defines the three server architectures the paper
// evaluates (Section III-A and VI-A) together with the calibration
// cells that anchor the performance model to the paper's published
// measurements:
//
//   - Intel x86: a 16-core Xeon X5650 class machine at 2.66 GHz with
//     12 MB LLC and 128 GB DDR3-1333 — the QoS baseline platform.
//   - Cavium ThunderX: 48 in-order ARMv8 cores at 2 GHz sharing a
//     16 MB LLC — the starting point the paper found 1.35-1.5x slower
//     than x86.
//   - The proposed NTC server: 16 Cortex-A57 OoO cores in 28nm UTBB
//     FD-SOI, 64 KB I / 32 KB D L1, 16 MB LLC, 16 GB DDR4-2400
//     (19.2 GB/s) — 1.25-1.76x faster than ThunderX.
//
// Execution time follows the two-component model
//
//	T(f) = C_exe / f + T_mem
//
// with a frequency-proportional compute part and a memory-stall part
// that does not scale with core frequency — the standard analytical
// DVFS performance model, and the reason frequency scaling is
// tolerable for memory-bound workloads (Section VI-B). The (C_exe,
// T_mem) cells below are fitted to Table I and the Fig. 2 QoS
// crossovers; each carries its derivation.
package platform

import (
	"fmt"

	"repro/internal/units"
	"repro/internal/workload"
)

// PerfCell anchors one (platform, workload-class) pair: the cycle
// budget C_exe (expressed in GHz·s, i.e. billions of cycles) and the
// frequency-independent memory-stall time T_mem in seconds.
type PerfCell struct {
	CexeGHzs float64
	TmemSec  float64
}

// Platform describes one server architecture's performance identity.
type Platform struct {
	Name string

	// Cores is the number of cores (each VM is pinned one-per-core in
	// the paper's server-level experiments).
	Cores int

	// InOrder marks in-order pipelines (ThunderX); OoO platforms hide
	// part of the memory latency via MLP.
	InOrder bool

	LLC units.ByteSize

	// MemBandwidth is the peak DRAM bandwidth (19.2 GB/s for the NTC
	// server's DDR4-2400 channel).
	MemBandwidth float64

	// FMin, FMax delimit the frequency range explored on the platform.
	FMin, FMax units.Frequency

	// FNominal is the frequency used in Table I (2.66 GHz for x86,
	// 2 GHz for ThunderX and the NTC server).
	FNominal units.Frequency

	// cells holds the fitted calibration per workload class.
	cells map[workload.Class]PerfCell
}

// Cell returns the calibration cell for class c.
func (p *Platform) Cell(c workload.Class) PerfCell {
	cell, ok := p.cells[c]
	if !ok {
		panic(fmt.Sprintf("platform %s: no calibration cell for %v", p.Name, c))
	}
	return cell
}

// ExecTime returns the execution time of one VM of class c with a
// dedicated core at frequency f.
func (p *Platform) ExecTime(c workload.Class, f units.Frequency) float64 {
	cell := p.Cell(c)
	return cell.CexeGHzs/f.GHz() + cell.TmemSec
}

// IntelX5650 returns the x86 QoS-baseline platform.
//
// Only the 2.66 GHz Table I points are published for this platform;
// the split of each T into C_exe and T_mem uses half of the NTC
// server's fitted memory-stall time (server-class caches, deeper
// prefetchers, quad-channel memory), and C_exe absorbs the remainder:
//
//	low:  0.437 = C/2.66 + 0.0728  -> C = 0.969
//	mid:  1.564 = C/2.66 + 0.5585  -> C = 2.674
//	high: 3.455 = C/2.66 + 2.7345  -> C = 1.916
func IntelX5650() *Platform {
	return &Platform{
		Name:         "Intel Xeon X5650 (x86)",
		Cores:        16,
		InOrder:      false,
		LLC:          units.MiB(12),
		MemBandwidth: 32e9,
		FMin:         units.GHz(1.6),
		FMax:         units.GHz(2.66),
		FNominal:     units.GHz(2.66),
		cells: map[workload.Class]PerfCell{
			workload.LowMem:  {CexeGHzs: 0.9692, TmemSec: 0.07275},
			workload.MidMem:  {CexeGHzs: 2.6744, TmemSec: 0.55850},
			workload.HighMem: {CexeGHzs: 1.9163, TmemSec: 2.73450},
		},
	}
}

// CaviumThunderX returns the original ThunderX platform: in-order
// cores and a memory subsystem the paper found inappropriate for
// these applications.
//
// Cells are fitted to the Table I column at 2 GHz with the in-order
// stall model (memory stalls serialise, T_mem ≈ 1.9x the NTC value
// for the memory-heavy classes, 1.5x for low-mem) and the remainder
// in C_exe:
//
//	low:  0.733  = C/2 + 0.218  -> C = 1.030
//	mid:  5.035  = C/2 + 2.122  -> C = 5.826
//	high: 11.943 = C/2 + 10.391 -> C = 3.104
func CaviumThunderX() *Platform {
	return &Platform{
		Name:         "Cavium ThunderX (ARM64 in-order)",
		Cores:        48,
		InOrder:      true,
		LLC:          units.MiB(16), // shared by 48 cores
		MemBandwidth: 40e9,
		FMin:         units.GHz(0.6),
		FMax:         units.GHz(2.5),
		FNominal:     units.GHz(2.0),
		cells: map[workload.Class]PerfCell{
			workload.LowMem:  {CexeGHzs: 1.0295, TmemSec: 0.21825},
			workload.MidMem:  {CexeGHzs: 5.8257, TmemSec: 2.12230},
			workload.HighMem: {CexeGHzs: 3.1042, TmemSec: 10.39110},
		},
	}
}

// NTCServer returns the proposed NTC server platform: the modified
// ThunderX with 16 Cortex-A57 OoO cores and the upgraded memory
// subsystem (64 KB I / 32 KB D L1, 16 MB LLC, DDR4-2400).
//
// Cells are the primary fit of the whole performance model. Using
// Table I at 2 GHz together with the Fig. 2 QoS crossovers (low-mem
// meets the 2x limit down to 1.2 GHz; mid/high down to 1.8 GHz) gives
// two equations per class:
//
//	low:  C/2.0 + T = 0.582,  C/1.2 + T = 0.873  -> C = 0.873, T = 0.1455
//	mid:  C/2.0 + T = 2.926,  C/1.8 + T = 3.127  -> C = 3.617, T = 1.117
//	high: C/2.0 + T = 6.765,  C/1.8 + T = 6.909  -> C = 2.592, T = 5.469
//
// All three classes imply the same A57 base CPI of ≈1.12 for their
// fitted instruction counts, which corroborates the fit.
func NTCServer() *Platform {
	return &Platform{
		Name:         "Proposed NTC server (16x A57 OoO, FD-SOI)",
		Cores:        16,
		InOrder:      false,
		LLC:          units.MiB(16),
		MemBandwidth: 19.2e9,
		FMin:         units.GHz(0.1),
		FMax:         units.GHz(3.1),
		FNominal:     units.GHz(2.0),
		cells: map[workload.Class]PerfCell{
			workload.LowMem:  {CexeGHzs: 0.8730, TmemSec: 0.14550},
			workload.MidMem:  {CexeGHzs: 3.6170, TmemSec: 1.11730},
			workload.HighMem: {CexeGHzs: 2.5920, TmemSec: 5.46900},
		},
	}
}
