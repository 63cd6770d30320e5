package platform

import (
	"math"
	"testing"

	"repro/internal/units"
	"repro/internal/workload"
)

// tableI holds the paper's published Table I execution times (seconds).
var tableI = []struct {
	class  workload.Class
	x86    float64 // Intel x86 @ 2.66 GHz
	limit  float64 // 2x degradation (QoS limit)
	cavium float64 // Cavium @ 2 GHz
	ntc    float64 // NTC server @ 2 GHz
}{
	{workload.LowMem, 0.437, 0.873, 0.733, 0.582},
	{workload.MidMem, 1.564, 3.127, 5.035, 2.926},
	{workload.HighMem, 3.455, 6.909, 11.943, 6.765},
}

// within checks a relative error bound, mirroring the paper's own
// <10% gem5-vs-hardware validation; our calibrated cells land well
// under 1%.
func within(got, want, relTol float64) bool {
	return math.Abs(got-want) <= relTol*math.Abs(want)
}

func TestTableIExecutionTimes(t *testing.T) {
	x86 := IntelX5650()
	cavium := CaviumThunderX()
	ntc := NTCServer()
	for _, row := range tableI {
		if got := x86.ExecTime(row.class, units.GHz(2.66)); !within(got, row.x86, 0.01) {
			t.Errorf("x86 %v = %.3f s, want %.3f (Table I)", row.class, got, row.x86)
		}
		if got := cavium.ExecTime(row.class, units.GHz(2.0)); !within(got, row.cavium, 0.01) {
			t.Errorf("Cavium %v = %.3f s, want %.3f (Table I)", row.class, got, row.cavium)
		}
		if got := ntc.ExecTime(row.class, units.GHz(2.0)); !within(got, row.ntc, 0.01) {
			t.Errorf("NTC %v = %.3f s, want %.3f (Table I)", row.class, got, row.ntc)
		}
	}
}

func TestNTCOutperformsCaviumBy125to176(t *testing.T) {
	// Section VI-A: "our proposed NTC server architecture outperforms
	// Cavium by a factor of 1.25x to 1.76x".
	cavium := CaviumThunderX()
	ntc := NTCServer()
	minRatio, maxRatio := math.Inf(1), math.Inf(-1)
	for _, c := range workload.Classes() {
		ratio := cavium.ExecTime(c, units.GHz(2)) / ntc.ExecTime(c, units.GHz(2))
		minRatio = math.Min(minRatio, ratio)
		maxRatio = math.Max(maxRatio, ratio)
	}
	if minRatio < 1.2 || minRatio > 1.35 {
		t.Errorf("min speedup = %.2fx, want ≈1.25x", minRatio)
	}
	if maxRatio < 1.6 || maxRatio > 1.85 {
		t.Errorf("max speedup = %.2fx, want ≈1.76x", maxRatio)
	}
}

func TestCaviumSlowerThanX86(t *testing.T) {
	// Section III-A: Cavium was 1.35x-1.5x slower than x86 for the
	// target applications (comparing at each platform's Table I
	// nominal frequency). Our calibration reproduces Table I, where
	// the gap ranges from ~1.7x (low) to ~3.5x (high); the direction
	// and "unable to meet QoS" conclusion are what matter.
	x86 := IntelX5650()
	cavium := CaviumThunderX()
	for _, c := range workload.Classes() {
		tX86 := x86.ExecTime(c, x86.FNominal)
		tCav := cavium.ExecTime(c, cavium.FNominal)
		if tCav <= tX86 {
			t.Errorf("%v: Cavium %.3f s should be slower than x86 %.3f s", c, tCav, tX86)
		}
	}
	// Cavium misses the 2x QoS limit for the memory-heavy classes.
	for _, row := range tableI[1:] {
		if cavium.ExecTime(row.class, cavium.FNominal) <= row.limit {
			t.Errorf("%v: Cavium unexpectedly meets the QoS limit", row.class)
		}
	}
}

func TestExecTimeMonotoneDecreasingInFrequency(t *testing.T) {
	ntc := NTCServer()
	for _, c := range workload.Classes() {
		prev := math.Inf(1)
		for g := 0.1; g <= 3.1; g += 0.1 {
			cur := ntc.ExecTime(c, units.GHz(g))
			if cur > prev+1e-12 {
				t.Fatalf("%v: exec time increased at %.1f GHz", c, g)
			}
			prev = cur
		}
	}
}

func TestExecTimeApproachesMemoryFloor(t *testing.T) {
	// As f -> inf, time approaches T_mem; at very low f the compute
	// part dominates. High-mem must keep a large floor (memory-bound).
	ntc := NTCServer()
	cell := ntc.Cell(workload.HighMem)
	tHigh := ntc.ExecTime(workload.HighMem, units.GHz(100))
	if !within(tHigh, cell.TmemSec, 0.01) {
		t.Errorf("high-mem at 100 GHz = %.3f, want ≈ T_mem %.3f", tHigh, cell.TmemSec)
	}
}

func TestWFMFractionBehaviour(t *testing.T) {
	ntc := NTCServer()
	// WFM fraction rises with frequency (compute shrinks, stalls stay).
	for _, c := range workload.Classes() {
		lo := ntc.WFMFraction(c, units.GHz(0.5))
		hi := ntc.WFMFraction(c, units.GHz(2.5))
		if hi <= lo {
			t.Errorf("%v: WFM fraction should rise with frequency (%.3f -> %.3f)", c, lo, hi)
		}
	}
	// And rises with memory intensity at fixed frequency.
	f := units.GHz(2)
	low := ntc.WFMFraction(workload.LowMem, f)
	mid := ntc.WFMFraction(workload.MidMem, f)
	high := ntc.WFMFraction(workload.HighMem, f)
	if !(low < mid && mid < high) {
		t.Errorf("WFM ordering violated: %.3f, %.3f, %.3f", low, mid, high)
	}
}

func TestCellPanicsOnMissingClass(t *testing.T) {
	p := &Platform{Name: "empty", cells: map[workload.Class]PerfCell{}}
	defer func() {
		if recover() == nil {
			t.Error("Cell on empty platform did not panic")
		}
	}()
	p.Cell(workload.LowMem)
}

func TestPlatformDescriptors(t *testing.T) {
	ntc := NTCServer()
	if ntc.Cores != 16 {
		t.Errorf("NTC cores = %d, want 16", ntc.Cores)
	}
	if ntc.LLC.MB() != 16 {
		t.Errorf("NTC LLC = %v, want 16 MB", ntc.LLC)
	}
	if ntc.MemBandwidth != 19.2e9 {
		t.Errorf("NTC bandwidth = %v, want 19.2 GB/s", ntc.MemBandwidth)
	}
	if cavium := CaviumThunderX(); !cavium.InOrder || cavium.Cores != 48 {
		t.Error("Cavium should be 48 in-order cores")
	}
	if x86 := IntelX5650(); x86.FNominal != units.GHz(2.66) {
		t.Errorf("x86 nominal = %v, want 2.66 GHz", x86.FNominal)
	}
}

// WFMFraction returns the fraction of execution time the core spends
// in the wait-for-memory state at frequency f.
func (p *Platform) WFMFraction(c workload.Class, f units.Frequency) float64 {
	cell := p.Cell(c)
	t := cell.CexeGHzs/f.GHz() + cell.TmemSec
	if t <= 0 {
		return 0
	}
	return cell.TmemSec / t
}
