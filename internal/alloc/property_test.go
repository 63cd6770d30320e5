package alloc

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/power"
	"repro/internal/units"
)

// randomVMs builds a reproducible random VM population from a seed.
func randomVMs(seed int64, maxVMs int) []VMDemand {
	state := uint64(seed)*2862933555777941757 + 3037000493 | 1
	next := func() float64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return float64(state%10000) / 10000
	}
	n := 2 + int(next()*float64(maxVMs-2))
	samples := 12
	vms := make([]VMDemand, n)
	for i := range vms {
		cpu := make([]float64, samples)
		mem := make([]float64, samples)
		base := next() * 90
		memBase := 2 + next()*45
		for s := range cpu {
			cpu[s] = math.Min(100, math.Max(0, base+20*(next()-0.5)))
			mem[s] = math.Min(100, math.Max(0, memBase+4*(next()-0.5)))
		}
		vms[i] = VMDemand{ID: i, CPU: cpu, Mem: mem}
	}
	return vms
}

// demandMass sums all CPU demand across VMs and samples.
func demandMass(vms []VMDemand) float64 {
	total := 0.0
	for i := range vms {
		for _, c := range vms[i].CPU {
			total += c
		}
	}
	return total
}

// planMass sums all CPU load across server plans and samples.
func planMass(a *Assignment) float64 {
	total := 0.0
	for _, s := range a.Servers {
		for _, c := range s.CPU {
			total += c
		}
	}
	return total
}

// TestMassConservationProperty: no policy may create or lose demand —
// the aggregated server plans carry exactly the input mass.
func TestMassConservationProperty(t *testing.T) {
	spec := ntcSpec()
	policies := []Policy{
		newEPACT(),
		NewCOAT(spec),
		NewCOATOPT(spec, units.GHz(1.9)),
		NewFFD(),
		NewVerma(),
		&LoadBalance{Servers: 8},
	}
	for _, pol := range policies {
		pol := pol
		prop := func(seed int64) bool {
			vms := randomVMs(seed, 40)
			a, err := pol.Allocate(vms, spec)
			if err != nil {
				return false
			}
			return math.Abs(planMass(a)-demandMass(vms)) < 1e-6
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
			t.Errorf("%s: %v", pol.Name(), err)
		}
	}
}

// TestExactlyOnceProperty: every VM lands on exactly one server.
func TestExactlyOnceProperty(t *testing.T) {
	spec := ntcSpec()
	policies := []Policy{
		newEPACT(), NewCOAT(spec), NewFFD(), NewVerma(),
	}
	for _, pol := range policies {
		pol := pol
		prop := func(seed int64) bool {
			vms := randomVMs(seed, 40)
			a, err := pol.Allocate(vms, spec)
			if err != nil {
				return false
			}
			return a.Validate(len(vms)) == nil
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
			t.Errorf("%s: %v", pol.Name(), err)
		}
	}
}

// TestCapRespectedProperty: capped policies never plan a server above
// the CPU cap (when each VM individually fits the cap).
func TestCapRespectedProperty(t *testing.T) {
	spec := ntcSpec()
	policies := []Policy{NewCOAT(spec), NewCOATOPT(spec, units.GHz(1.9)), NewFFD(), NewVerma()}
	for _, pol := range policies {
		pol := pol
		prop := func(seed int64) bool {
			vms := randomVMs(seed, 40)
			a, err := pol.Allocate(vms, spec)
			if err != nil {
				return false
			}
			for _, s := range a.Servers {
				if s.PeakCPU() > a.CPUCapPoints+1e-6 {
					return false
				}
				if len(s.Mem) > 0 && mathxMax(s.Mem) > a.MemCapPoints+1e-6 {
					return false
				}
			}
			return true
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
			t.Errorf("%s: %v", pol.Name(), err)
		}
	}
}

func mathxMax(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// TestEPACTNeverPlansAboveFMaxProperty: the planned slot frequency is
// always a valid DVFS level.
func TestEPACTNeverPlansAboveFMaxProperty(t *testing.T) {
	spec := ntcSpec()
	model := power.NTCServer()
	pol := &EPACT{Model: model}
	prop := func(seed int64) bool {
		vms := randomVMs(seed, 60)
		a, err := pol.Allocate(vms, spec)
		if err != nil {
			return false
		}
		return a.PlannedFreq >= model.FMin && a.PlannedFreq <= model.FMax
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestMigrationStatsConservationProperty: stays + migrations always
// equals the population.
func TestMigrationStatsConservationProperty(t *testing.T) {
	spec := ntcSpec()
	pol := NewCOAT(spec)
	prop := func(seed int64) bool {
		vms1 := randomVMs(seed, 30)
		vms2 := randomVMs(seed+1, 30)
		if len(vms1) != len(vms2) {
			// Compare requires equal populations; trim.
			n := len(vms1)
			if len(vms2) < n {
				n = len(vms2)
			}
			vms1, vms2 = vms1[:n], vms2[:n]
		}
		a1, err := pol.Allocate(vms1, spec)
		if err != nil {
			return false
		}
		a2, err := pol.Allocate(vms2, spec)
		if err != nil {
			return false
		}
		stats := new(MigrationMatcher).Compare(a1, a2, nil)
		return stats.Migrations+stats.Stayed == len(vms1)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestPolicyPurityProperty: for a given construction, Allocate is a
// pure function of its input, which the sweep engine's allocation memo
// relies on. For each of the six policies (built as the engine builds
// them), a fresh instance and a reused one, each called twice, return
// identical Assignments, and the input demands stay bit-for-bit
// unmodified.
func TestPolicyPurityProperty(t *testing.T) {
	spec := ntcSpec()
	for _, mk := range []func() Policy{
		func() Policy { return &EPACT{Model: power.NTCServer()} },
		func() Policy { return NewCOAT(spec) },
		func() Policy { return NewCOATOPT(spec, power.NTCServer().OptimalFrequency()) },
		func() Policy { return NewFFD() },
		func() Policy { return NewVerma() },
		func() Policy { return &LoadBalance{} },
	} {
		reused := mk()
		prop := func(seed int64) bool {
			vms := randomVMs(seed, 60)
			orig := cloneDemands(vms)
			fresh := mk()
			var got []*Assignment
			for _, pol := range []Policy{fresh, fresh, reused, reused} {
				a, err := pol.Allocate(vms, spec)
				if err != nil {
					t.Logf("seed %d: %v", seed, err)
					return false
				}
				got = append(got, a)
			}
			for _, a := range got[1:] {
				if !identicalAssignments(got[0], a) {
					return false
				}
			}
			return identicalDemands(vms, orig)
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
			t.Errorf("%s: %v", reused.Name(), err)
		}
	}
}

func cloneDemands(vms []VMDemand) []VMDemand {
	out := make([]VMDemand, len(vms))
	for i, v := range vms {
		out[i] = VMDemand{ID: v.ID, CPU: append([]float64(nil), v.CPU...), Mem: append([]float64(nil), v.Mem...)}
	}
	return out
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func identicalDemands(a, b []VMDemand) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || !sameBits(a[i].CPU, b[i].CPU) || !sameBits(a[i].Mem, b[i].Mem) {
			return false
		}
	}
	return true
}

// identicalAssignments compares every field bit for bit, the plan
// patterns included, and each server's VM list in order.
func identicalAssignments(a, b *Assignment) bool {
	if a.Policy != b.Policy || len(a.Servers) != len(b.Servers) || !sameInts(a.VMServer, b.VMServer) ||
		math.Float64bits(a.CPUCapPoints) != math.Float64bits(b.CPUCapPoints) ||
		math.Float64bits(a.MemCapPoints) != math.Float64bits(b.MemCapPoints) ||
		a.PlannedFreq != b.PlannedFreq || a.FixedFreq != b.FixedFreq || a.EPACTCase != b.EPACTCase {
		return false
	}
	for i := range a.Servers {
		s, r := a.Servers[i], b.Servers[i]
		if !sameInts(s.VMs, r.VMs) || !sameBits(s.CPU, r.CPU) || !sameBits(s.Mem, r.Mem) {
			return false
		}
	}
	return true
}
