package power

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

// breakdown decomposes a server's power at one operating point into
// the paper's four contributors (Section IV) plus the motherboard. It
// is the power tests' reference for the server power formula: built
// from the component models directly, not from LevelPower's cached
// coefficients, and its Total must equal LevelPower.Evaluate (so
// ServerModel.Power) bit for bit.
type breakdown struct {
	// CoresBusy is the power of busy core regions (active + WFM
	// states); CoresIdle is the clock-gated remainder.
	CoresBusy, CoresIdle units.Power

	// LLCLeak and LLCAccess split the last-level cache.
	LLCLeak, LLCAccess units.Power

	// Uncore is the memory controller / peripherals / IO block.
	Uncore units.Power

	// DRAMStandby and DRAMAccess split the memory banks.
	DRAMStandby, DRAMAccess units.Power

	// Motherboard is the static platform cost.
	Motherboard units.Power
}

// powerBreakdown evaluates the decomposition at op, clamping the
// frequency into [FMin, FMax], the busy cores into [0, Cores] and the
// WFM fraction into [0, 1].
func powerBreakdown(s *ServerModel, op OperatingPoint) *breakdown {
	f := min(max(op.Freq, s.FMin), s.FMax)
	busy := min(max(op.BusyCores, 0), float64(s.Cores))
	wfm := min(max(op.WFMFraction, 0), 1)

	active := float64(s.Core.ActivePower(f))
	wfmP := float64(s.Core.WFMPower(f))
	idle := float64(s.Core.IdlePower(f))

	standby := s.DRAM.IdlePerGB
	if op.MemReadBytesPerSec > 0 || op.MemWriteBytesPerSec > 0 {
		standby = s.DRAM.ActivePerGB // any traffic activates the banks
	}
	access := op.LLCReadsPerSec*float64(s.LLC.ReadEnergyNom) + op.LLCWritesPerSec*float64(s.LLC.WriteEnergyNom)
	return &breakdown{
		CoresBusy:   units.Power(busy * ((1-wfm)*active + wfm*wfmP)),
		CoresIdle:   units.Power((float64(s.Cores) - busy) * idle),
		LLCLeak:     s.LLC.LeakagePower(f),
		LLCAccess:   units.Power(access * s.LLC.Tech.DynamicEnergyScale(f)),
		Uncore:      s.Uncore.Power(f),
		DRAMStandby: units.Power(float64(standby) * s.DRAM.Capacity.GB()),
		DRAMAccess:  units.Power((op.MemReadBytesPerSec + op.MemWriteBytesPerSec) * float64(s.DRAM.EnergyPerByte)),
		Motherboard: s.Motherboard,
	}
}

// Total sums the contributors: cores, LLC, uncore, DRAM, motherboard.
func (b *breakdown) Total() units.Power {
	cores := b.CoresBusy + b.CoresIdle
	llc := b.LLCLeak + b.LLCAccess
	dram := b.DRAMStandby + b.DRAMAccess
	return cores + llc + b.Uncore + dram + b.Motherboard
}

// staticShare is the fraction of Total that does not scale with load
// at this operating point: idle cores, LLC leakage, uncore, DRAM
// standby and motherboard.
func (b *breakdown) staticShare() float64 {
	static := b.CoresIdle + b.LLCLeak + b.Uncore + b.DRAMStandby + b.Motherboard
	return static.W() / b.Total().W()
}

func sameBits(a, b units.Power) bool {
	return math.Float64bits(float64(a)) == math.Float64bits(float64(b))
}

// TestBreakdownTotalsEqualPower: for arbitrary operating points of
// both platforms, in and out of the DVFS range and the load envelope,
// the reference decomposition totals to exactly ServerModel.Power.
func TestBreakdownTotalsEqualPower(t *testing.T) {
	for _, s := range []*ServerModel{NTCServer(), IntelE5_2620()} {
		prop := func(seed int64) bool {
			r := float64(uint(seed)%1000) / 1000
			op := OperatingPoint{
				Freq:                units.GHz(s.FMin.GHz() - 0.2 + (s.FMax.GHz()-s.FMin.GHz()+0.5)*r),
				BusyCores:           1.1 * float64(s.Cores) * r,
				WFMFraction:         1.1 * r,
				LLCReadsPerSec:      1e7 * r,
				LLCWritesPerSec:     5e6 * r,
				MemReadBytesPerSec:  1e9 * r,
				MemWriteBytesPerSec: 4e8 * r,
			}
			return sameBits(powerBreakdown(s, op).Total(), s.Power(op))
		}
		if err := quick.Check(prop, nil); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

func TestBreakdownComponentsAtIdle(t *testing.T) {
	s := NTCServer()
	b := powerBreakdown(s, OperatingPoint{Freq: units.GHz(0.1)})
	if b.CoresBusy != 0 {
		t.Errorf("idle server busy-core power = %v, want 0", b.CoresBusy)
	}
	if b.Motherboard.W() != 15 {
		t.Errorf("motherboard = %v, want 15 W", b.Motherboard)
	}
	// At idle nearly everything is static.
	if share := b.staticShare(); share < 0.9 {
		t.Errorf("idle static share = %.2f, want >= 0.9", share)
	}
}

func TestBreakdownStaticShareDropsUnderLoad(t *testing.T) {
	s := NTCServer()
	idle := powerBreakdown(s, OperatingPoint{Freq: units.GHz(1.9)})
	loaded := powerBreakdown(s, OperatingPoint{Freq: units.GHz(1.9), BusyCores: 16})
	if loaded.staticShare() >= idle.staticShare() {
		t.Errorf("static share should fall under load: %.2f -> %.2f",
			idle.staticShare(), loaded.staticShare())
	}
}

func TestBreakdownDRAMSplit(t *testing.T) {
	s := NTCServer()
	b := powerBreakdown(s, OperatingPoint{
		Freq: units.GHz(2), BusyCores: 16, MemReadBytesPerSec: 1e9,
	})
	// Standby at 155 mW/GB × 16 GB = 2.48 W; access 0.8 W at 1 GB/s.
	if math.Abs(b.DRAMStandby.W()-2.48) > 1e-6 {
		t.Errorf("DRAM standby = %v, want 2.48 W", b.DRAMStandby)
	}
	if math.Abs(b.DRAMAccess.W()-0.8) > 1e-6 {
		t.Errorf("DRAM access = %v, want 0.8 W", b.DRAMAccess)
	}
}

// TestBreakdownComponentsSorted: flat out at F_max the busy cores are
// the largest contributor.
func TestBreakdownComponentsSorted(t *testing.T) {
	s := NTCServer()
	b := powerBreakdown(s, OperatingPoint{Freq: units.GHz(3.1), BusyCores: 16})
	for _, c := range []units.Power{b.CoresIdle, b.LLCLeak, b.LLCAccess, b.Uncore, b.DRAMStandby, b.DRAMAccess, b.Motherboard} {
		if c >= b.CoresBusy {
			t.Fatalf("a component draws %v, at least the busy cores' %v", c, b.CoresBusy)
		}
	}
}
