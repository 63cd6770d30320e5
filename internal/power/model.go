package power

import (
	"fmt"
	"strings"

	"repro/internal/units"
)

// Model is the pluggable server power model behind the sweep's
// power-model axis. The FDSOI/NTC ServerModel (the paper's Section IV
// decomposition) is the default implementation; TDPModel is the
// coarse TDP-interpolated alternative used by cloud carbon
// accounting. Everything the allocator and the replay loop need —
// the DVFS grid, frequency clamping, per-level power evaluation —
// goes through this interface, so a scenario can swap the power
// semantics without touching allocation or violation accounting.
type Model interface {
	// ModelName labels the model in results and errors.
	ModelName() string

	// NumCores and MemGB describe the server's capacity (the
	// allocator's bin dimensions).
	NumCores() int
	MemGB() float64

	// FreqMin and FreqMax delimit the DVFS range.
	FreqMin() units.Frequency
	FreqMax() units.Frequency

	// DVFSGrid enumerates the frequency levels, FMin to FMax; the
	// replay and EPACT reject a model whose grid is empty. LevelIndex
	// maps a frequency to its grid index such that
	// DVFSGrid()[LevelIndex(f, len(grid))] == ClampFrequency(f)
	// bit-for-bit; ClampFrequency snaps a requested frequency up to
	// the next available level.
	DVFSGrid() []units.Frequency
	LevelIndex(f units.Frequency, gridLen int) int
	ClampFrequency(f units.Frequency) units.Frequency

	// OptimalFrequency is the level minimising power per delivered
	// GHz (the paper's F_opt).
	OptimalFrequency() units.Frequency

	// Power prices an arbitrary operating point; CPUBoundPower is the
	// all-cores-busy envelope.
	Power(op OperatingPoint) units.Power
	CPUBoundPower(f units.Frequency) units.Power

	// LevelAt returns a cached per-level evaluator for the replay hot
	// loop: Evaluate must be bit-identical to Power at the cached
	// frequency, allocation-free, and safe for concurrent use. Each
	// model's Power prices through its own evaluator, so both hold the
	// one formula.
	LevelAt(f units.Frequency) LevelEvaluator
}

// LevelEvaluator prices operating points at one cached DVFS level —
// the unit the simulator's per-(class, level) tables are built from.
type LevelEvaluator interface {
	Evaluate(busyCores, wfmFraction, llcReadsPerSec, llcWritesPerSec, memReadBytesPerSec, memWriteBytesPerSec float64) units.Power
}

// ServerModel adapters: the interface cannot reuse the exported field
// names (Name, Cores), so the accessors carry Model-prefixed names.

// ModelName implements Model.
func (s *ServerModel) ModelName() string { return s.Name }

// NumCores implements Model.
func (s *ServerModel) NumCores() int { return s.Cores }

// MemGB implements Model.
func (s *ServerModel) MemGB() float64 { return s.DRAM.Capacity.GB() }

// FreqMin implements Model.
func (s *ServerModel) FreqMin() units.Frequency { return s.FMin }

// FreqMax implements Model.
func (s *ServerModel) FreqMax() units.Frequency { return s.FMax }

// LevelAt implements Model: the returned evaluator is the cached
// LevelPower, bit-identical to Power at the cached frequency.
func (s *ServerModel) LevelAt(f units.Frequency) LevelEvaluator {
	lp := s.LevelPowerAt(f)
	return &lp
}

// ModelNames lists the power-model axis values.
func ModelNames() []string { return []string{"ntc", "tdp"} }

// ResolveModel wraps a platform's native server model per the
// power-model axis name: "ntc" (or empty) keeps the FDSOI model
// unchanged — the bit-exact default — and "tdp" wraps it in the
// TDP-interpolated model. The base carries any static-power override
// already applied, so both models see the same platform tweaks.
func ResolveModel(name string, base *ServerModel) (Model, error) {
	switch name {
	case "", "ntc":
		return base, nil
	case "tdp":
		return NewTDPModel(base), nil
	default:
		return nil, fmt.Errorf("power: unknown power model %q (known: %s)",
			name, strings.Join(ModelNames(), ", "))
	}
}

// tdpCurve is the cloud-carbon-exporter interpolation: CPU power as a
// fraction of TDP at 0/10/50/100% load. Between the points the curve
// is linear.
var tdpCurve = [4]struct{ load, frac float64 }{
	{0, 0.12}, {0.10, 0.32}, {0.50, 0.75}, {1.0, 1.02},
}

// TDPRAMWattPerGB is the flat DRAM power of the TDP model, in watts
// per installed gigabyte.
const TDPRAMWattPerGB = 0.38

// tdpFraction linearly interpolates the TDP curve at load u ∈ [0,1].
func tdpFraction(u float64) float64 {
	if u <= 0 {
		return tdpCurve[0].frac
	}
	for i := 1; i < len(tdpCurve); i++ {
		if u <= tdpCurve[i].load {
			lo, hi := tdpCurve[i-1], tdpCurve[i]
			return lo.frac + (u-lo.load)/(hi.load-lo.load)*(hi.frac-lo.frac)
		}
	}
	return tdpCurve[len(tdpCurve)-1].frac
}

// TDPModel is the coarse, platform-agnostic power model cloud carbon
// accounting uses (cloud-carbon-exporter's primitives): CPU power is
// a piecewise-linear fraction of TDP over load (12/32/75/102% at
// 0/10/50/100%), DRAM is a flat 0.38 W/GB, and the platform's static
// power rides along unchanged. Everything that shapes allocation —
// the DVFS grid, clamping, the optimal frequency — delegates to the
// wrapped FDSOI model, so swapping power models never perturbs
// placement or violation counts, only the energy (and therefore
// carbon) accounting.
type TDPModel struct {
	// Base is the platform's native model; capacity, DVFS range and
	// allocation-facing behaviour delegate to it.
	Base *ServerModel

	// TDP is the CPU's thermal design power the load curve scales.
	TDP units.Power

	// Static is the fixed platform power added on top (the Base's
	// Motherboard at construction, so per-DC static overrides apply
	// to both models identically).
	Static units.Power
}

// tdpByName maps known platforms to their published TDP class: the
// conventional E5-2620 is a 95 W part; the 16-core NTC server's
// near-threshold envelope corresponds to a ~40 W package.
func tdpByName(base *ServerModel) units.Power {
	switch base.Name {
	case "NTC-16xA57-FDSOI28":
		return 40
	case "Intel-E5-2620-bulk32":
		return 95
	default:
		// Unknown platform: take its modelled full-load CPU envelope
		// (total minus static and flat RAM) as the TDP stand-in.
		return base.CPUBoundPower(base.FMax) - base.Motherboard
	}
}

// NewTDPModel wraps base in the TDP-interpolated model.
func NewTDPModel(base *ServerModel) *TDPModel {
	return &TDPModel{Base: base, TDP: tdpByName(base), Static: base.Motherboard}
}

// ModelName implements Model.
func (m *TDPModel) ModelName() string { return "TDP(" + m.Base.Name + ")" }

// NumCores implements Model.
func (m *TDPModel) NumCores() int { return m.Base.Cores }

// MemGB implements Model.
func (m *TDPModel) MemGB() float64 { return m.Base.DRAM.Capacity.GB() }

// FreqMin implements Model.
func (m *TDPModel) FreqMin() units.Frequency { return m.Base.FMin }

// FreqMax implements Model.
func (m *TDPModel) FreqMax() units.Frequency { return m.Base.FMax }

// DVFSGrid implements Model by delegation.
func (m *TDPModel) DVFSGrid() []units.Frequency { return m.Base.DVFSGrid() }

// LevelIndex implements Model by delegation.
func (m *TDPModel) LevelIndex(f units.Frequency, gridLen int) int {
	return m.Base.LevelIndex(f, gridLen)
}

// ClampFrequency implements Model by delegation.
func (m *TDPModel) ClampFrequency(f units.Frequency) units.Frequency {
	return m.Base.ClampFrequency(f)
}

// OptimalFrequency implements Model by delegation: the allocator's
// frequency planning is a property of the platform, not of how power
// is priced, which is what keeps the tdp rows' placement identical to
// the ntc rows'.
func (m *TDPModel) OptimalFrequency() units.Frequency { return m.Base.OptimalFrequency() }

// Power implements Model through the level evaluator at op.Freq.
func (m *TDPModel) Power(op OperatingPoint) units.Power {
	e := m.level(op.Freq)
	return e.Evaluate(op.BusyCores, op.WFMFraction, op.LLCReadsPerSec, op.LLCWritesPerSec,
		op.MemReadBytesPerSec, op.MemWriteBytesPerSec)
}

// CPUBoundPower implements Model.
func (m *TDPModel) CPUBoundPower(f units.Frequency) units.Power {
	return m.Power(OperatingPoint{Freq: f, BusyCores: float64(m.Base.Cores)})
}

// tdpLevelEval is the TDP model's cached per-level evaluator: only
// the delivered clock fraction depends on the level, so Evaluate is a
// clamp, an interpolation and two multiplications — allocation-free.
type tdpLevelEval struct {
	tdp, ram, fRatio, cores float64
	static                  units.Power
}

// LevelAt implements Model.
func (m *TDPModel) LevelAt(f units.Frequency) LevelEvaluator {
	e := m.level(f)
	return &e
}

// level builds the evaluator at f, snapped to its DVFS level.
func (m *TDPModel) level(f units.Frequency) tdpLevelEval {
	f = m.Base.ClampFrequency(f)
	ratio := 1.0
	if fm := m.Base.FMax.GHz(); fm > 0 {
		ratio = f.GHz() / fm
	}
	return tdpLevelEval{
		tdp:    float64(m.TDP),
		ram:    TDPRAMWattPerGB * m.Base.DRAM.Capacity.GB(),
		fRatio: ratio,
		cores:  float64(m.Base.Cores),
		static: m.Static,
	}
}

// Evaluate implements LevelEvaluator: the load is the busy
// core-equivalents' share of the server scaled by the delivered clock
// fraction, clamped to [0,1]; the power is TDP × the curve at that
// load, plus the flat RAM power and the static power. The TDP curve
// has no cache/DRAM-traffic terms; the extra observables are accepted
// and ignored so the evaluator drops into the same per-level tables.
func (e *tdpLevelEval) Evaluate(busyCores, wfmFraction, llcReadsPerSec, llcWritesPerSec, memReadBytesPerSec, memWriteBytesPerSec float64) units.Power {
	u := busyCores / e.cores * e.fRatio
	if u < 0 {
		u = 0
	}
	if u > 1 {
		u = 1
	}
	return units.Power(e.tdp*tdpFraction(u)) + units.Power(e.ram) + e.static
}
