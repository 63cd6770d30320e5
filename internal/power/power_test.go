package power

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func TestNTCOptimalFrequencyIs1point9GHz(t *testing.T) {
	// The paper's headline server-level observation (Fig. 1a): the
	// most efficient frequency of the NTC server is around 1.9 GHz,
	// not F_max, because of the non-linear CPU power/frequency curve.
	s := NTCServer()
	fOpt := s.OptimalFrequency()
	if fOpt.GHz() < 1.8-1e-9 || fOpt.GHz() > 2.0+1e-9 {
		t.Errorf("NTC optimal frequency = %v, want ≈1.9 GHz (band [1.8, 2.0])", fOpt)
	}
}

func TestNTCPowerPerGHzShape(t *testing.T) {
	// P(f)/f must be strictly worse at both extremes than at the
	// optimum — the "energy-proportionality sweet spot" shape.
	s := NTCServer()
	opt := s.PowerPerGHz(s.OptimalFrequency())
	if lo := s.PowerPerGHz(units.GHz(0.3)); lo < opt*1.3 {
		t.Errorf("P/f at 0.3 GHz = %.1f, want >= 1.3x optimum %.1f", lo, opt)
	}
	if hi := s.PowerPerGHz(units.GHz(3.1)); hi < opt*1.3 {
		t.Errorf("P/f at 3.1 GHz = %.1f, want >= 1.3x optimum %.1f", hi, opt)
	}
}

func TestNonNTCOptimalFrequencyIsFMax(t *testing.T) {
	// Fig. 1b: for the conventional server, P(f)/f decreases all the
	// way to F_max — consolidation at maximum frequency is optimal.
	s := IntelE5_2620()
	fOpt := s.OptimalFrequency()
	if fOpt != s.FMax {
		t.Errorf("E5-2620 optimal frequency = %v, want FMax = %v", fOpt, s.FMax)
	}
	// And the curve is monotone decreasing across the DVFS range.
	prev := math.Inf(1)
	for _, f := range s.DVFSGrid() {
		cur := s.PowerPerGHz(f)
		if cur > prev+1e-9 {
			t.Fatalf("E5-2620 P/f increased at %v: %.2f -> %.2f", f, prev, cur)
		}
		prev = cur
	}
}

func TestNTCServerAbsolutePowerEnvelope(t *testing.T) {
	// Sanity band for absolute watts: a 16-core NTC server should be
	// a few tens of watts at the optimum and roughly 150-200 W flat
	// out; idle at minimum frequency should be dominated by the
	// published fixed overheads (15 + 11.84 + ~2 W).
	s := NTCServer()
	if p := s.CPUBoundPower(units.GHz(1.9)).W(); p < 45 || p > 90 {
		t.Errorf("CPU-bound power at 1.9 GHz = %.1f W, want in [45, 90]", p)
	}
	if p := s.CPUBoundPower(units.GHz(3.1)).W(); p < 130 || p > 220 {
		t.Errorf("CPU-bound power at 3.1 GHz = %.1f W, want in [130, 220]", p)
	}
	if p := s.IdlePower(units.GHz(0.1)).W(); p < 25 || p > 35 {
		t.Errorf("idle power at 0.1 GHz = %.1f W, want in [25, 35]", p)
	}
}

// TestEnergyProportionalityScore pins the paper's premise on the one
// idle/peak score: the NTC server's drastically reduced static power
// scores well above the conventional E5, which idles at about half its
// peak.
func TestEnergyProportionalityScore(t *testing.T) {
	ntc := NTCServer().IdlePeakScore()
	e5 := IntelE5_2620().IdlePeakScore()
	if ntc <= e5 {
		t.Errorf("NTC score %.3f should beat E5 %.3f", ntc, e5)
	}
	if ntc < 0.75 {
		t.Errorf("NTC score = %.3f, want >= 0.75 (drastically reduced static power)", ntc)
	}
	if e5 > 0.6 {
		t.Errorf("E5 score = %.3f, want <= 0.6: idle/peak >= 0.4, as traditional servers idle at ~half peak", e5)
	}
}

// TestNTCMoreEnergyProportionalThanE5 checks the same premise on the raw
// idle/peak ratio, and that IdlePeakScore is one minus that ratio.
func TestNTCMoreEnergyProportionalThanE5(t *testing.T) {
	ntc := NTCServer()
	e5 := IntelE5_2620()
	ntcRatio := ntc.IdlePower(ntc.FMin).W() / ntc.CPUBoundPower(ntc.FMax).W()
	e5Ratio := e5.IdlePower(e5.FMin).W() / e5.CPUBoundPower(e5.FMax).W()
	if ntcRatio >= e5Ratio {
		t.Errorf("NTC idle/peak %.2f should be below E5 idle/peak %.2f", ntcRatio, e5Ratio)
	}
	if e5Ratio < 0.4 {
		t.Errorf("E5 idle/peak = %.2f, want >= 0.4 (traditional servers idle at ~half peak)", e5Ratio)
	}
	for _, c := range []struct {
		s     *ServerModel
		ratio float64
	}{{ntc, ntcRatio}, {e5, e5Ratio}} {
		if got := c.s.IdlePeakScore(); got != 1-c.ratio {
			t.Errorf("%s: IdlePeakScore %v != 1 - idle/peak %v", c.s.Name, got, 1-c.ratio)
		}
	}
}

func TestWFMReducesCorePowerBy24Percent(t *testing.T) {
	s := NTCServer()
	f := units.GHz(2.0)
	active := s.Core.ActivePower(f).W()
	wfm := s.Core.WFMPower(f).W()
	if got := wfm / active; math.Abs(got-0.76) > 1e-9 {
		t.Errorf("WFM/active power ratio = %.3f, want 0.76 (24%% reduction)", got)
	}
}

func TestUncorePublishedConstants(t *testing.T) {
	s := NTCServer()
	// Constant part 11.84 W; proportional part 1.6 W at the bottom of
	// the range and 9 W at the top.
	if got := s.Uncore.Power(s.FMin).W(); math.Abs(got-(11.84+1.6)) > 1e-9 {
		t.Errorf("uncore at FMin = %.2f W, want 13.44", got)
	}
	if got := s.Uncore.Power(s.FMax).W(); math.Abs(got-(11.84+9)) > 1e-9 {
		t.Errorf("uncore at FMax = %.2f W, want 20.84", got)
	}
	// Clamped outside the range.
	if got := s.Uncore.Power(s.FMax + units.GHz(1)).W(); math.Abs(got-(11.84+9)) > 1e-9 {
		t.Errorf("uncore beyond FMax = %.2f W, want clamped 20.84", got)
	}
}

func TestDRAMPublishedConstants(t *testing.T) {
	s := NTCServer()
	// Idle: 15.5 mW/GB × 16 GB = 0.248 W.
	dram := func(readBytesPerSec float64) float64 {
		b := powerBreakdown(s, OperatingPoint{Freq: s.FMin, MemReadBytesPerSec: readBytesPerSec})
		return (b.DRAMStandby + b.DRAMAccess).W()
	}
	if got := dram(0); math.Abs(got-0.248) > 1e-6 {
		t.Errorf("DRAM idle = %.4f W, want 0.248", got)
	}
	// Active standby: 155 mW/GB × 16 GB = 2.48 W, plus 800 pJ/B:
	// 1 GB/s of reads adds 0.8 W.
	oneGB := 1e9
	want := 2.48 + oneGB*800e-12
	if got := dram(oneGB); math.Abs(got-want) > 1e-6 {
		t.Errorf("DRAM at 1GB/s = %.4f W, want %.4f", got, want)
	}
}

func TestPowerMonotoneInLoad(t *testing.T) {
	// More busy cores must never cost less power (at fixed f).
	s := NTCServer()
	prop := func(seed int64) bool {
		f := units.GHz(0.5 + math.Mod(math.Abs(float64(seed)), 2.6))
		b1 := math.Mod(math.Abs(float64(seed))*1.37, 16)
		b2 := math.Mod(b1+1, 16)
		lo, hi := math.Min(b1, b2), math.Max(b1, b2)
		p1 := s.Power(OperatingPoint{Freq: f, BusyCores: lo})
		p2 := s.Power(OperatingPoint{Freq: f, BusyCores: hi})
		return p2 >= p1-1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestPowerMonotoneInFrequency(t *testing.T) {
	// Absolute CPU-bound power rises with frequency (even though P/f falls).
	for _, s := range []*ServerModel{NTCServer(), IntelE5_2620()} {
		prev := 0.0
		for _, f := range s.DVFSGrid() {
			cur := s.CPUBoundPower(f).W()
			if cur < prev-1e-9 {
				t.Fatalf("%s: CPU-bound power decreased at %v", s.Name, f)
			}
			prev = cur
		}
	}
}

func TestWFMStateCheaperThanActive(t *testing.T) {
	s := NTCServer()
	f := units.GHz(1.5)
	memBound := s.Power(OperatingPoint{Freq: f, BusyCores: 16, WFMFraction: 0.8})
	cpuBound := s.Power(OperatingPoint{Freq: f, BusyCores: 16})
	if memBound >= cpuBound {
		t.Errorf("80%% WFM power %v should be below CPU-bound %v (core side)", memBound, cpuBound)
	}
}

// validate checks op against the server envelope.
func validate(s *ServerModel, op OperatingPoint) error {
	if op.Freq < s.FMin-units.Frequency(1) || op.Freq > s.FMax+units.Frequency(1) {
		return fmt.Errorf("power: frequency %v outside [%v, %v]", op.Freq, s.FMin, s.FMax)
	}
	if op.BusyCores < 0 || op.BusyCores > float64(s.Cores) {
		return fmt.Errorf("power: busy cores %.2f outside [0, %d]", op.BusyCores, s.Cores)
	}
	if op.WFMFraction < 0 || op.WFMFraction > 1 {
		return fmt.Errorf("power: WFM fraction %.2f outside [0, 1]", op.WFMFraction)
	}
	return nil
}

func TestValidate(t *testing.T) {
	s := NTCServer()
	if err := validate(s, OperatingPoint{Freq: units.GHz(1.9), BusyCores: 8}); err != nil {
		t.Errorf("valid point rejected: %v", err)
	}
	bad := []OperatingPoint{
		{Freq: units.GHz(5), BusyCores: 8},
		{Freq: units.GHz(1.9), BusyCores: -1},
		{Freq: units.GHz(1.9), BusyCores: 17},
		{Freq: units.GHz(1.9), BusyCores: 8, WFMFraction: 1.5},
	}
	for i, op := range bad {
		if err := validate(s, op); err == nil {
			t.Errorf("bad point %d accepted", i)
		}
	}
}

func TestDVFSLevels(t *testing.T) {
	s := NTCServer()
	levels := s.DVFSGrid()
	if levels[0] != s.FMin || levels[len(levels)-1] != s.FMax {
		t.Errorf("levels span [%v, %v], want [%v, %v]",
			levels[0], levels[len(levels)-1], s.FMin, s.FMax)
	}
	// 0.1 to 3.1 GHz in 100 MHz steps = 31 levels.
	if len(levels) != 31 {
		t.Errorf("len(levels) = %d, want 31", len(levels))
	}
}

func TestClampFrequency(t *testing.T) {
	s := NTCServer()
	cases := []struct {
		in   units.Frequency
		want units.Frequency
	}{
		{units.GHz(0.05), s.FMin},
		{units.GHz(4.0), s.FMax},
		{units.GHz(1.85), units.GHz(1.9)}, // rounds *up* to next level
		{units.GHz(1.9), units.GHz(1.9)},
	}
	for _, c := range cases {
		if got := s.ClampFrequency(c.in); math.Abs(got.GHz()-c.want.GHz()) > 1e-9 {
			t.Errorf("ClampFrequency(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// energyPerCycle returns the active energy per clock cycle of one core
// at frequency f, the quantity NTC minimises by voltage scaling.
func energyPerCycle(m *CoreModel, f units.Frequency) units.Energy {
	return units.Energy(float64(m.ActivePower(f)) / float64(f))
}

func TestEnergyPerCycleMinimisedNearThreshold(t *testing.T) {
	// The classic NTC result: core energy per cycle has its minimum in
	// the near-threshold region — dynamic energy falls quadratically
	// with voltage while leakage-per-cycle rises as frequency drops,
	// so the optimum sits slightly above threshold, not at V_min and
	// not at V_max.
	s := NTCServer()
	levels := s.DVFSGrid()
	best := levels[0]
	bestE := float64(energyPerCycle(&s.Core, best))
	for _, f := range levels[1:] {
		if e := float64(energyPerCycle(&s.Core, f)); e < bestE {
			best, bestE = f, e
		}
	}
	if !s.Tech.InNearThresholdRegion(best) {
		t.Errorf("core energy/cycle minimum at %v is outside the NTC region", best)
	}
	if best == s.FMax {
		t.Error("energy/cycle minimum should not be at FMax")
	}
	// And per-cycle energy at FMax is much worse than at the optimum
	// (the quadratic V² penalty the paper exploits).
	if eMax := float64(energyPerCycle(&s.Core, s.FMax)); eMax < 2*bestE {
		t.Errorf("energy/cycle at FMax %.3g should be >= 2x the NTC optimum %.3g", eMax, bestE)
	}
}
