package dcsim

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"repro/internal/alloc"
	"repro/internal/perf"
	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/workload"
)

// refReplaySlot is the reference for runState.replaySlot: the naive
// replay that prices every sample by evaluating the performance and
// power models directly. The governor's frequency is ClampFrequency
// of the demand (a fixed-cap slot runs at PlannedFreq), and
// perf.Observe and Model.Power are called at that frequency, with no
// lookup table and no level index. m and plat are the server's power
// model and performance platform.
func refReplaySlot(cfg *Config, m power.Model, plat *platform.Platform, asg *alloc.Assignment, absLo int) SlotResult {
	var out SlotResult
	fMax := m.FreqMax()
	cores := float64(m.NumCores())
	cpuPoints := cores * 100
	capCPU := cpuPoints
	if asg.FixedFreq {
		capCPU = cpuPoints * asg.PlannedFreq.GHz() / fMax.GHz()
	}
	capMem := m.MemGB() * 100
	for _, srv := range asg.Servers {
		if len(srv.VMs) == 0 {
			continue
		}
		out.ActiveServers++
		for i := 0; i < trace.SamplesPerSlot; i++ {
			var cpuTotal, memTotal float64
			var classCPU [numClasses]float64
			for _, v := range srv.VMs {
				vm := cfg.Trace.VMs[v]
				classCPU[vm.Class] += vm.CPU[absLo+i]
				cpuTotal += vm.CPU[absLo+i]
				memTotal += vm.Mem[absLo+i]
			}
			if cpuTotal > capCPU+1e-9 || memTotal > capMem+1e-9 {
				out.Violations++
			}

			f := asg.PlannedFreq
			if !asg.FixedFreq {
				f = m.ClampFrequency(units.GHz(cpuTotal / cpuPoints * fMax.GHz()))
			}
			scale := fMax.GHz() / f.GHz()
			busy := math.Min(cpuTotal/100*scale, cores)
			op := power.OperatingPoint{Freq: f, BusyCores: busy}
			for c := 0; c < numClasses; c++ {
				if classCPU[c] == 0 {
					continue
				}
				classBusy := classCPU[c] / 100 * scale
				obs := perf.Observe(plat, workload.Class(c), f, 1)
				op.WFMFraction += classBusy * obs.WFMFraction
				op.LLCReadsPerSec += classBusy * obs.LLCReadsPerSec
				op.LLCWritesPerSec += classBusy * obs.LLCWritesPerSec
				op.MemReadBytesPerSec += classBusy * obs.MemReadBytesPerSec
				op.MemWriteBytesPerSec += classBusy * obs.MemWriteBytesPerSec
			}
			if busy > 0 {
				op.WFMFraction /= busy
			}
			out.Energy += units.EnergyOver(m.Power(op), cfg.Trace.Interval.Seconds())
		}
	}
	if cfg.MaxServers > 0 && out.ActiveServers > cfg.MaxServers {
		out.Violations += (out.ActiveServers - cfg.MaxServers) * trace.SamplesPerSlot
	}
	return out
}

// recordingPolicy hands out its inner policy's assignments and keeps
// them, so the reference can price exactly what the run priced.
type recordingPolicy struct {
	alloc.Policy
	asgs []*alloc.Assignment
}

func (p *recordingPolicy) Allocate(vms []alloc.VMDemand, spec alloc.ServerSpec) (*alloc.Assignment, error) {
	a, err := p.Policy.Allocate(vms, spec)
	p.asgs = append(p.asgs, a)
	return a, err
}

// refRun replays a finished run's recorded assignments through the
// reference and the run's own transition accounting.
func refRun(t *testing.T, cfg *Config, m power.Model, plat *platform.Platform, asgs []*alloc.Assignment) []SlotResult {
	t.Helper()
	evalStart := cfg.HistoryDays * trace.SamplesPerDay
	resident := make([]float64, len(cfg.Trace.VMs))
	var prev *alloc.Assignment
	out := make([]SlotResult, len(asgs))
	for s, asg := range asgs {
		absLo := evalStart + s*trace.SamplesPerSlot
		slot := refReplaySlot(cfg, m, plat, asg, absLo)
		slot.Slot = s
		slot.PlannedFreq = asg.PlannedFreq
		if cfg.Transitions != (TransitionModel{}) {
			if err := residentSets(cfg.Trace, absLo, resident); err != nil {
				t.Fatal(err)
			}
			te, stats := cfg.Transitions.slotTransitionEnergy(new(alloc.MigrationMatcher), prev, asg, resident, cfg.InitialActiveServers)
			slot.TransitionEnergy = te
			slot.Migrations = stats.Migrations
			slot.Energy += te
		}
		prev = asg
		out[s] = slot
	}
	return out
}

func sameSlot(a, b SlotResult) bool {
	bits := func(x float64) uint64 { return math.Float64bits(x) }
	return a.Slot == b.Slot && a.ActiveServers == b.ActiveServers &&
		a.Violations == b.Violations && a.Migrations == b.Migrations &&
		bits(float64(a.Energy)) == bits(float64(b.Energy)) &&
		bits(float64(a.TransitionEnergy)) == bits(float64(b.TransitionEnergy)) &&
		bits(float64(a.PlannedFreq)) == bits(float64(b.PlannedFreq))
}

// refPolicies builds the six allocation policies for one server model.
func refPolicies(m power.Model) []alloc.Policy {
	spec := alloc.ServerSpec{Cores: m.NumCores(), MemContainers: m.MemGB(), FMax: m.FreqMax(), FMin: m.FreqMin()}
	return []alloc.Policy{
		&alloc.EPACT{Model: m},
		alloc.NewCOAT(spec),
		alloc.NewCOATOPT(spec, m.OptimalFrequency()),
		alloc.NewFFD(),
		alloc.NewVerma(),
		&alloc.LoadBalance{},
	}
}

// TestReplayMatchesReference checks every SlotResult of the table-driven
// slot replay bit-for-bit against the per-sample reference, over random
// traces × both server platforms × {ntc, tdp} power models × all six
// policies × {none, default} transitions. The conventional server's
// grid holds levels ClampFrequency rounds up one step, which is where
// a level index and a clamped frequency could part ways.
func TestReplayMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(2018, 19))
	servers := []struct {
		model func() *power.ServerModel
		plat  *platform.Platform
	}{
		{power.NTCServer, platform.NTCServer()},
		{power.IntelE5_2620, platform.IntelX5650()},
	}
	for trial := 0; trial < 2; trial++ {
		tcfg := trace.DefaultConfig(rng.Int64N(1 << 31))
		tcfg.VMs = 20 + rng.IntN(30)
		tcfg.Days = 2
		tr, err := trace.Generate(tcfg)
		if err != nil {
			t.Fatal(err)
		}
		ps, err := Predict(tr, nil, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, srv := range servers {
			for _, pm := range power.ModelNames() {
				m, err := power.ResolveModel(pm, srv.model())
				if err != nil {
					t.Fatal(err)
				}
				for _, pol := range refPolicies(m) {
					for _, tm := range []TransitionModel{{}, DefaultTransitions()} {
						name := fmt.Sprintf("seed%d/%s/%s/%s/transitions=%v", tcfg.Seed, m.ModelName(), pm, pol.Name(), tm != TransitionModel{})
						rec := &recordingPolicy{Policy: pol}
						cfg := Config{Trace: tr, Predictions: ps, HistoryDays: 1, EvalDays: 1,
							Policy: rec, MaxServers: tcfg.VMs / 2, Transitions: tm}
						tb, err := NewTables(m, srv.plat)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						st, err := tb.NewStepper(cfg)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						res, err := stepAll(st)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						want := refRun(t, &cfg, m, srv.plat, rec.asgs)
						if len(res.Slots) != len(want) {
							t.Fatalf("%s: %d slots, reference %d", name, len(res.Slots), len(want))
						}
						for s := range want {
							if !sameSlot(res.Slots[s], want[s]) {
								t.Fatalf("%s: slot %d = %+v (%.17g J), reference %+v (%.17g J)", name, s,
									res.Slots[s], float64(res.Slots[s].Energy), want[s], float64(want[s].Energy))
							}
						}
					}
				}
			}
		}
	}
}

// stubPolicy hands back a prebuilt assignment, whatever the demands.
type stubPolicy struct{ asg *alloc.Assignment }

func (p *stubPolicy) Name() string { return "stub" }
func (p *stubPolicy) Allocate([]alloc.VMDemand, alloc.ServerSpec) (*alloc.Assignment, error) {
	return p.asg, nil
}

// TestOffGridFixedCapFailsItsSlot: a fixed-cap assignment whose
// planned frequency is not a grid level cannot be priced from the
// level tables, so its slot fails instead of being priced elsewhere.
func TestOffGridFixedCapFailsItsSlot(t *testing.T) {
	tr := testTrace(t, 10)
	ps := oracle(t, tr)
	asg := &alloc.Assignment{Servers: []*alloc.ServerPlan{{VMs: []int{0}}},
		PlannedFreq: units.GHz(1.95), FixedFreq: true}
	_, err := replay(testConfig(t, tr, &stubPolicy{asg: asg}, ps))
	if err == nil || !strings.Contains(err.Error(), "slot 0") || !strings.Contains(err.Error(), "not a DVFS level") {
		t.Fatalf("off-grid fixed cap: err = %v, want a slot-0 DVFS-level error", err)
	}
}

// TestModelWithoutGridIsRejected: a server model without a DVFS grid
// (DVFSStep <= 0) fails the replay and EPACT up front, naming the
// model, instead of being priced off the level tables.
func TestModelWithoutGridIsRejected(t *testing.T) {
	tr := testTrace(t, 10)
	ps := oracle(t, tr)
	for _, step := range []units.Frequency{0, -units.MHz(100)} {
		base := power.NTCServer()
		base.DVFSStep = step
		for _, pm := range power.ModelNames() {
			m, err := power.ResolveModel(pm, base)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := NewTables(m, platform.NTCServer()); err == nil || !strings.Contains(err.Error(), m.ModelName()) {
				t.Errorf("%s step %v: NewTables err = %v, want one naming the model", pm, step, err)
			}
			spec := alloc.ServerSpec{Cores: 16, MemContainers: 16, FMax: m.FreqMax(), FMin: m.FreqMin()}
			vms := []alloc.VMDemand{{ID: 0, CPU: ps.CPU[0][:trace.SamplesPerSlot], Mem: ps.Mem[0][:trace.SamplesPerSlot]}}
			if _, err := (&alloc.EPACT{Model: m}).Allocate(vms, spec); err == nil || !strings.Contains(err.Error(), m.ModelName()) {
				t.Errorf("%s step %v: EPACT.Allocate err = %v, want one naming the model", pm, step, err)
			}
		}
	}
}
