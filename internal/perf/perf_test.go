package perf

import (
	"math"
	"testing"

	"repro/internal/platform"
	"repro/internal/units"
	"repro/internal/workload"
)

func TestObserveMatchesExecTime(t *testing.T) {
	ntc := platform.NTCServer()
	for _, c := range workload.Classes() {
		obs := Observe(ntc, c, units.GHz(2), 1)
		if want := ntc.ExecTime(c, units.GHz(2)); math.Abs(obs.Time-want) > 1e-12 {
			t.Errorf("%v: Observe time %.4f != ExecTime %.4f", c, obs.Time, want)
		}
	}
}

func TestObserveUIPSScalesWithCores(t *testing.T) {
	ntc := platform.NTCServer()
	one := Observe(ntc, workload.LowMem, units.GHz(2), 1)
	sixteen := Observe(ntc, workload.LowMem, units.GHz(2), 16)
	if math.Abs(sixteen.ChipUIPS/one.ChipUIPS-16) > 1e-9 {
		t.Errorf("UIPS did not scale 16x: %v vs %v", sixteen.ChipUIPS, one.ChipUIPS)
	}
}

func TestObserveTrafficConsistency(t *testing.T) {
	ntc := platform.NTCServer()
	obs := Observe(ntc, workload.MidMem, units.GHz(2), 16)
	spec := workload.Get(workload.MidMem)
	// Total DRAM bytes/s = misses/s × 64 B.
	missesPerSec := 16 * spec.Instructions * spec.MPKI / 1000 / obs.Time
	wantBytes := missesPerSec * CacheLineBytes
	got := obs.MemReadBytesPerSec + obs.MemWriteBytesPerSec
	if math.Abs(got-wantBytes)/wantBytes > 1e-9 {
		t.Errorf("traffic = %.3e, want %.3e", got, wantBytes)
	}
	// Write split honours the spec.
	if f := obs.MemWriteBytesPerSec / got; math.Abs(f-spec.WriteFraction) > 1e-9 {
		t.Errorf("write fraction = %.2f, want %.2f", f, spec.WriteFraction)
	}
}

func TestObserveWFMFractionMatchesPlatform(t *testing.T) {
	ntc := platform.NTCServer()
	f := units.GHz(1.5)
	for _, c := range workload.Classes() {
		obs := Observe(ntc, c, f, 1)
		// The platform's closed form: T_mem over T(f) = C_exe/f + T_mem.
		cell := ntc.Cell(c)
		if want := cell.TmemSec / (cell.CexeGHzs/f.GHz() + cell.TmemSec); math.Abs(obs.WFMFraction-want) > 1e-12 {
			t.Errorf("%v: WFM %.3f, want %.3f", c, obs.WFMFraction, want)
		}
	}
}

func TestBandwidthSaturationEngages(t *testing.T) {
	// 16 cores of high-mem at full tilt push ~11 GB/s — under the
	// 19.2 GB/s peak. A hypothetical 64-core load must saturate and
	// slow down.
	ntc := platform.NTCServer()
	normal := Observe(ntc, workload.HighMem, units.GHz(2.5), 16)
	if normal.BandwidthSaturated {
		t.Error("16-core high-mem should not saturate DDR4-2400")
	}
	crowded := Observe(ntc, workload.HighMem, units.GHz(2.5), 64)
	if !crowded.BandwidthSaturated {
		t.Error("64-core high-mem should saturate the channel")
	}
	if crowded.Time <= normal.Time {
		t.Errorf("saturated time %.3f should exceed unsaturated %.3f", crowded.Time, normal.Time)
	}
	// Saturated traffic must not exceed the channel peak (small
	// tolerance for the fixed-point approximation).
	total := crowded.MemReadBytesPerSec + crowded.MemWriteBytesPerSec
	if total > ntc.MemBandwidth*1.02 {
		t.Errorf("saturated traffic %.3e exceeds peak %.3e", total, ntc.MemBandwidth)
	}
}

func TestSpeedup(t *testing.T) {
	ntc := platform.NTCServer()
	cavium := platform.CaviumThunderX()
	// NTC@2GHz vs Cavium@2GHz on high-mem: ≈1.77x (Table I ratio).
	s := Speedup(ntc, units.GHz(2), cavium, units.GHz(2), workload.HighMem)
	if s < 1.6 || s > 1.9 {
		t.Errorf("speedup = %.2f, want ≈1.77", s)
	}
}

func TestFig2NormalisedShape(t *testing.T) {
	// Execution time normalised to the QoS limit rises steeply at low
	// frequency — by an order of magnitude at 0.1 GHz (Fig. 2's
	// y-range reaches ~35).
	ntc := platform.NTCServer()
	for _, c := range workload.Classes() {
		t01 := ntc.ExecTime(c, units.GHz(0.1))
		t25 := ntc.ExecTime(c, units.GHz(2.5))
		if t01/t25 < 4 {
			t.Errorf("%v: 0.1 GHz only %.1fx slower than 2.5 GHz, want steep growth", c, t01/t25)
		}
	}
}

// ExecTime is shorthand for the single-core execution time of class c
// at frequency f on platform p.
func ExecTime(p *platform.Platform, c workload.Class, f units.Frequency) float64 {
	return p.ExecTime(c, f)
}

// Speedup returns how much faster platform a runs class c than
// platform b at their respective frequencies.
func Speedup(a *platform.Platform, fa units.Frequency, b *platform.Platform, fb units.Frequency, c workload.Class) float64 {
	return b.ExecTime(c, fb) / a.ExecTime(c, fa)
}
