package power

import (
	"testing"

	"repro/internal/units"
)

// xorshift for reproducible random sampling without pulling in math/rand
// ordering dependencies.
type lvlRNG struct{ s uint64 }

func (r *lvlRNG) next() float64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return float64(r.s>>11) / float64(1<<53)
}

func TestDVFSGridMatchesClampFrequency(t *testing.T) {
	for _, srv := range []*ServerModel{NTCServer(), IntelE5_2620()} {
		grid := srv.DVFSGrid()
		if len(grid) == 0 {
			t.Fatalf("%s: empty DVFS grid", srv.Name)
		}
		if grid[0] != srv.FMin || grid[len(grid)-1] != srv.FMax {
			t.Fatalf("%s: grid endpoints %v..%v, want %v..%v",
				srv.Name, grid[0], grid[len(grid)-1], srv.FMin, srv.FMax)
		}
		// ClampFrequency is NOT idempotent on its own grid (the Ceil
		// over divided GHz values can round a grid level up one step:
		// Ceil((0.4-0.1)/0.1) = 4 in float64), so the property that
		// matters is only that LevelIndex agrees with ClampFrequency —
		// including for grid levels themselves as inputs.
		for k, f := range grid {
			want := srv.ClampFrequency(f)
			if got := grid[srv.LevelIndex(f, len(grid))]; got != want {
				t.Errorf("%s: grid[LevelIndex(grid[%d]=%v)] = %v, ClampFrequency = %v",
					srv.Name, k, f, got, want)
			}
		}
		// Dense random sweep (including out-of-range requests): the
		// level the grid index selects must be bit-identical to what
		// ClampFrequency returns.
		r := &lvlRNG{s: 0x9e3779b97f4a7c15}
		lo := srv.FMin.GHz() - 0.5
		hi := srv.FMax.GHz() + 0.5
		for i := 0; i < 200000; i++ {
			f := units.GHz(lo + r.next()*(hi-lo))
			want := srv.ClampFrequency(f)
			idx := srv.LevelIndex(f, len(grid))
			if idx < 0 || idx >= len(grid) {
				t.Fatalf("%s: LevelIndex(%v) = %d out of range", srv.Name, f, idx)
			}
			if grid[idx] != want {
				t.Fatalf("%s: grid[LevelIndex(%v)] = %v, ClampFrequency = %v (bit mismatch)",
					srv.Name, f, grid[idx], want)
			}
		}
	}
}

// TestDVFSGridNoStepFallback pins that a server without a positive
// DVFSStep has no grid; dcsim and EPACT reject such a model
// (TestModelWithoutGridIsRejected in internal/dcsim).
func TestDVFSGridNoStepFallback(t *testing.T) {
	for _, step := range []units.Frequency{0, -units.MHz(100)} {
		srv := NTCServer()
		srv.DVFSStep = step
		if g := srv.DVFSGrid(); g != nil {
			t.Fatalf("DVFSGrid with step %v = %v, want nil", step, g)
		}
	}
}

// TestLevelPowerMatchesServerPower pins the one server power formula
// against its reference: for both platforms, at every DVFS level and
// at off-grid frequencies inside and outside [FMin, FMax] (which
// LevelPowerAt clamps but does not snap), Evaluate, and Power, which
// prices through it, equal the breakdown reference's total bit for
// bit, over loads that include the clamp region and the idle-bank
// branch.
func TestLevelPowerMatchesServerPower(t *testing.T) {
	for _, srv := range []*ServerModel{NTCServer(), IntelE5_2620()} {
		freqs := append(srv.DVFSGrid(), srv.FMin-units.GHz(0.3), srv.FMin+units.MHz(37),
			srv.FMax-units.MHz(150), srv.FMax+units.GHz(1))
		r := &lvlRNG{s: 0xdeadbeefcafe1234}
		for _, f := range freqs {
			lp := srv.LevelPowerAt(f)
			for trial := 0; trial < 64; trial++ {
				op := OperatingPoint{
					Freq:                f,
					BusyCores:           r.next() * float64(srv.Cores) * 1.1, // include clamp region
					WFMFraction:         r.next() * 1.1,
					LLCReadsPerSec:      r.next() * 5e8,
					LLCWritesPerSec:     r.next() * 3e8,
					MemReadBytesPerSec:  r.next() * 1e9,
					MemWriteBytesPerSec: r.next() * 1e9,
				}
				if trial%8 == 0 {
					op.MemReadBytesPerSec = 0
					op.MemWriteBytesPerSec = 0 // idle-bank branch
				}
				want := powerBreakdown(srv, op).Total()
				got := lp.Evaluate(op.BusyCores, op.WFMFraction,
					op.LLCReadsPerSec, op.LLCWritesPerSec,
					op.MemReadBytesPerSec, op.MemWriteBytesPerSec)
				if !sameBits(got, want) {
					t.Fatalf("%s f=%v: LevelPower.Evaluate = %v, reference = %v (bit mismatch)",
						srv.Name, f, got, want)
				}
				if p := srv.Power(op); !sameBits(p, want) {
					t.Fatalf("%s f=%v: ServerModel.Power = %v, reference = %v (bit mismatch)",
						srv.Name, f, p, want)
				}
			}
		}
	}
}

// TestPowerAllocatesNothing: Power builds its level evaluator on the
// stack, for both power models.
func TestPowerAllocatesNothing(t *testing.T) {
	op := OperatingPoint{Freq: units.GHz(1.85), BusyCores: 7, WFMFraction: 0.3, MemReadBytesPerSec: 1e8}
	for _, m := range []Model{NTCServer(), NewTDPModel(NTCServer())} {
		if n := testing.AllocsPerRun(100, func() { m.Power(op) }); n != 0 {
			t.Errorf("%s: Power allocates %v times per call, want 0", m.ModelName(), n)
		}
	}
}
