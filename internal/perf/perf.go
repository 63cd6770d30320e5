// Package perf is the performance-simulation substrate standing in
// for the paper's gem5 experiments. It exposes the observables the
// power model and the data-center study consume — execution time,
// user instructions per second (UIPS), wait-for-memory fraction and
// cache/DRAM traffic — per (platform, workload class, frequency).
//
// The observables come from a calibrated analytical path (Observe),
// anchored to the paper's published Table I times and Fig. 2 QoS
// crossovers via the platform calibration cells. An event-granular
// pipeline + cache + DRAM simulation cross-checks its aggregates in
// the experiments package's tests (the performance-model ablation).
package perf

import (
	"repro/internal/platform"
	"repro/internal/units"
	"repro/internal/workload"
)

// CacheLineBytes is the transfer granularity between LLC and DRAM.
const CacheLineBytes = 64

// Observables aggregates what one VM-per-core workload does to the
// machine at a given operating point. Rates are chip-level (summed
// over the active cores).
type Observables struct {
	// Time is the execution time of one VM job in seconds.
	Time float64

	// ChipUIPS is user instructions per second across active cores.
	ChipUIPS float64

	// WFMFraction is the fraction of busy time spent waiting for
	// memory.
	WFMFraction float64

	// LLC access rates (reads and writes per second, chip level).
	LLCReadsPerSec, LLCWritesPerSec float64

	// DRAM traffic (bytes per second, chip level).
	MemReadBytesPerSec, MemWriteBytesPerSec float64

	// BandwidthSaturated reports whether the aggregate DRAM demand hit
	// the channel's peak and execution was slowed accordingly.
	BandwidthSaturated bool
}

// Observe evaluates the calibrated model for activeCores cores each
// running one VM of class c at frequency f on platform p.
//
// When the aggregate DRAM demand exceeds the platform's peak
// bandwidth, the memory-stall component inflates by the overload
// factor and all rates are recomputed — the standard
// bandwidth-saturation correction.
func Observe(p *platform.Platform, c workload.Class, f units.Frequency, activeCores float64) Observables {
	spec := workload.Get(c)
	cell := p.Cell(c)

	// Bandwidth saturation: the concurrent jobs move
	// activeCores·I·MPKI/1000 cache lines during one job duration;
	// the channel cannot move them faster than its peak, so the
	// memory component has a transfer-time floor. Using the floor (a
	// max, not a multiplier) also guarantees the reported traffic
	// never exceeds the channel peak.
	totalBytes := activeCores * spec.Instructions * spec.MPKI / 1000 * CacheLineBytes
	memSec := cell.TmemSec
	saturated := false
	if p.MemBandwidth > 0 && totalBytes/p.MemBandwidth > memSec {
		memSec = totalBytes / p.MemBandwidth
		saturated = true
	}
	t := cell.CexeGHzs/f.GHz() + memSec
	perCoreMissRate := spec.Instructions * spec.MPKI / 1000 / t // misses per second per core

	perCoreIPS := spec.Instructions / t
	llcAccesses := activeCores * spec.Instructions * spec.LLCAPKI / 1000 / t
	memBytes := activeCores * perCoreMissRate * CacheLineBytes

	wfm := 0.0
	if t > 0 {
		wfm = (t - cell.CexeGHzs/f.GHz()) / t
	}

	return Observables{
		Time:                t,
		ChipUIPS:            activeCores * perCoreIPS,
		WFMFraction:         wfm,
		LLCReadsPerSec:      llcAccesses * (1 - spec.WriteFraction),
		LLCWritesPerSec:     llcAccesses * spec.WriteFraction,
		MemReadBytesPerSec:  memBytes * (1 - spec.WriteFraction),
		MemWriteBytesPerSec: memBytes * spec.WriteFraction,
		BandwidthSaturated:  saturated,
	}
}
