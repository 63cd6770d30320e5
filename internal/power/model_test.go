package power

import (
	"math"
	"strings"
	"testing"

	"repro/internal/units"
)

// TestTDPCurvePoints pins the interpolation anchors (the
// cloud-carbon-exporter constants): 12/32/75/102% of TDP at
// 0/10/50/100% load, linear between them.
func TestTDPCurvePoints(t *testing.T) {
	cases := []struct{ load, frac float64 }{
		{0, 0.12}, {0.10, 0.32}, {0.50, 0.75}, {1.0, 1.02},
		// Linear midpoints.
		{0.05, 0.22}, {0.30, 0.535}, {0.75, 0.885},
		// Clamped outside [0,1].
		{-1, 0.12}, {2, 1.02},
	}
	for _, c := range cases {
		if got := tdpFraction(c.load); math.Abs(got-c.frac) > 1e-12 {
			t.Errorf("tdpFraction(%g) = %g, want %g", c.load, got, c.frac)
		}
	}
}

// TestTDPModelPower pins the model arithmetic end to end: at full load
// and F_max the CPU term is 1.02×TDP, idle is 0.12×TDP, and the flat
// RAM adder is 0.38 W per installed GB — on top of the platform's
// static power in both cases.
func TestTDPModelPower(t *testing.T) {
	base := NTCServer()
	m := NewTDPModel(base)
	if m.TDP != 40 {
		t.Fatalf("NTC TDP class = %v W, want 40", m.TDP)
	}
	ram := TDPRAMWattPerGB * base.DRAM.Capacity.GB()
	static := float64(base.Motherboard)

	full := float64(m.CPUBoundPower(base.FMax))
	if want := 1.02*40 + ram + static; math.Abs(full-want) > 1e-9 {
		t.Errorf("full-load power = %g W, want %g", full, want)
	}
	idle := float64(m.Power(OperatingPoint{Freq: base.FMax}))
	if want := 0.12*40 + ram + static; math.Abs(idle-want) > 1e-9 {
		t.Errorf("idle power = %g W, want %g", idle, want)
	}

	// The E5 platform maps to the 95 W class.
	if e5 := NewTDPModel(IntelE5_2620()); e5.TDP != 95 {
		t.Errorf("E5 TDP class = %v W, want 95", e5.TDP)
	}
}

// TestTDPModelDelegatesAllocationSurface pins the placement-identity
// contract: every allocation-facing method of the TDP model returns
// the base model's value bit-for-bit, so swapping power models can
// never change placement, frequency planning, or violation counts.
func TestTDPModelDelegatesAllocationSurface(t *testing.T) {
	base := NTCServer()
	m := NewTDPModel(base)

	if m.NumCores() != base.NumCores() || m.MemGB() != base.MemGB() {
		t.Errorf("capacity diverged: %d/%g vs %d/%g", m.NumCores(), m.MemGB(), base.NumCores(), base.MemGB())
	}
	if m.FreqMin() != base.FreqMin() || m.FreqMax() != base.FreqMax() {
		t.Error("DVFS range diverged")
	}
	if m.OptimalFrequency() != base.OptimalFrequency() {
		t.Errorf("OptimalFrequency = %v, want %v", m.OptimalFrequency(), base.OptimalFrequency())
	}
	bg, mg := base.DVFSGrid(), m.DVFSGrid()
	if len(bg) != len(mg) {
		t.Fatalf("grid lengths diverged: %d vs %d", len(mg), len(bg))
	}
	for i := range bg {
		if bg[i] != mg[i] {
			t.Fatalf("grid level %d diverged: %v vs %v", i, mg[i], bg[i])
		}
		if m.ClampFrequency(bg[i]) != base.ClampFrequency(bg[i]) {
			t.Errorf("ClampFrequency(%v) diverged", bg[i])
		}
		if m.LevelIndex(bg[i], len(bg)) != base.LevelIndex(bg[i], len(bg)) {
			t.Errorf("LevelIndex(%v) diverged", bg[i])
		}
	}
}

// TestTDPLevelEvaluatorMatchesPower pins the TDP formula: LevelAt's
// cached evaluator and Power both equal the curve written out here
// (TDP × curve(busy/cores × f/F_max) + flat RAM + static) bit for bit,
// at every grid level and at off-grid frequencies, which price at the
// level ClampFrequency snaps them up to.
func TestTDPLevelEvaluatorMatchesPower(t *testing.T) {
	for _, base := range []*ServerModel{NTCServer(), IntelE5_2620()} {
		m := NewTDPModel(base)
		freqs := append(m.DVFSGrid(), base.FMin-units.GHz(0.3), base.FMin+units.MHz(37), base.FMax-units.MHz(150), base.FMax+units.GHz(1))
		for _, f := range freqs {
			ev := m.LevelAt(f)
			level := base.ClampFrequency(f)
			for _, busy := range []float64{-1, 0, 0.5, 3, 7.25, 16, 40} {
				u := min(max(busy/float64(base.Cores)*(level.GHz()/base.FMax.GHz()), 0), 1)
				want := units.Power(float64(m.TDP)*tdpFraction(u)) + units.Power(TDPRAMWattPerGB*base.DRAM.Capacity.GB()) + m.Static
				if got := ev.Evaluate(busy, 0.4, 1e6, 1e5, 1e9, 1e8); got != want {
					t.Fatalf("%s level %v busy %g: Evaluate = %v, curve = %v", base.Name, f, busy, got, want)
				}
				if got := m.Power(OperatingPoint{Freq: f, BusyCores: busy}); got != want {
					t.Fatalf("%s level %v busy %g: Power = %v, curve = %v", base.Name, f, busy, got, want)
				}
			}
		}
	}
}

// TestServerModelLevelAtMatchesPower pins the same contract for the
// native FDSOI model's adapter.
func TestServerModelLevelAtMatchesPower(t *testing.T) {
	m := NTCServer()
	for _, f := range m.DVFSGrid() {
		ev := m.LevelAt(f)
		op := OperatingPoint{Freq: f, BusyCores: 5, WFMFraction: 0.4,
			LLCReadsPerSec: 1e6, LLCWritesPerSec: 1e5,
			MemReadBytesPerSec: 1e9, MemWriteBytesPerSec: 1e8}
		want := m.Power(op)
		got := ev.Evaluate(5, 0.4, 1e6, 1e5, 1e9, 1e8)
		if got != want {
			t.Fatalf("level %v: Evaluate = %v, Power = %v", f, got, want)
		}
	}
}

// TestResolveModel pins the axis registry: "" and "ntc" return the
// base unchanged (the bit-exact default), "tdp" wraps it, and unknown
// names fail loudly listing the known models.
func TestResolveModel(t *testing.T) {
	base := NTCServer()
	for _, name := range []string{"", "ntc"} {
		m, err := ResolveModel(name, base)
		if err != nil {
			t.Fatalf("ResolveModel(%q): %v", name, err)
		}
		if m != Model(base) {
			t.Errorf("ResolveModel(%q) did not return the base model", name)
		}
	}
	m, err := ResolveModel("tdp", base)
	if err != nil {
		t.Fatal(err)
	}
	tm, ok := m.(*TDPModel)
	if !ok || tm.Base != base {
		t.Errorf("ResolveModel(tdp) = %T, want *TDPModel over the base", m)
	}
	if _, err := ResolveModel("sdp", base); err == nil ||
		!strings.Contains(err.Error(), `unknown power model "sdp"`) ||
		!strings.Contains(err.Error(), "ntc, tdp") {
		t.Errorf("unknown model error = %v, want a loud list of known models", err)
	}
	if got := ModelNames(); len(got) != 2 || got[0] != "ntc" || got[1] != "tdp" {
		t.Errorf("ModelNames() = %v", got)
	}
}

// TestTDPUnknownPlatformFallback: a platform outside the published TDP
// classes prices its modelled full-load CPU envelope as the stand-in.
func TestTDPUnknownPlatformFallback(t *testing.T) {
	base := NTCServer()
	base.Name = "custom-soc"
	m := NewTDPModel(base)
	want := base.CPUBoundPower(base.FMax) - base.Motherboard
	if m.TDP != want {
		t.Errorf("fallback TDP = %v, want %v", m.TDP, want)
	}
	if m.ModelName() != "TDP(custom-soc)" {
		t.Errorf("ModelName = %q", m.ModelName())
	}
}

// TestTDPLoadScalesWithFrequency: halving the clock halves the load
// axis, so a downclocked busy server prices below the same busy count
// at F_max (the energy knob DVFS gives the TDP model).
func TestTDPLoadScalesWithFrequency(t *testing.T) {
	m := NewTDPModel(NTCServer())
	lo := m.Power(OperatingPoint{Freq: m.FreqMin(), BusyCores: 16})
	hi := m.Power(OperatingPoint{Freq: m.FreqMax(), BusyCores: 16})
	if lo >= hi {
		t.Errorf("downclocked full-busy power %v >= F_max power %v", lo, hi)
	}
	if m.Power(OperatingPoint{Freq: m.FreqMax(), BusyCores: -5}) != m.Power(OperatingPoint{Freq: m.FreqMax()}) {
		t.Error("negative busy count must clamp to load 0")
	}
}
