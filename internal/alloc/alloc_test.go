package alloc

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/power"
	"repro/internal/units"
)

// Validate checks that every VM is assigned exactly once and plans are
// consistent with the mapping.
func (a *Assignment) Validate(numVMs int) error {
	if len(a.VMServer) != numVMs {
		return fmt.Errorf("alloc: VMServer has %d entries, want %d", len(a.VMServer), numVMs)
	}
	seen := make(map[int]int)
	for _, s := range a.Servers {
		for _, vm := range s.VMs {
			seen[vm]++
		}
	}
	for i := 0; i < numVMs; i++ {
		sv := a.VMServer[i]
		if sv < 0 || sv >= len(a.Servers) {
			return fmt.Errorf("alloc: VM %d assigned to invalid server %d", i, sv)
		}
		if seen[i] != 1 {
			return fmt.Errorf("alloc: VM %d appears %d times in server plans", i, seen[i])
		}
	}
	return nil
}

// ntcSpec is the NTC server as the allocators see it.
func ntcSpec() ServerSpec {
	return ServerSpec{Cores: 16, MemContainers: 16, FMax: units.GHz(3.1), FMin: units.GHz(0.1)}
}

// flatVMs builds n identical VMs with constant cpu/mem patterns over
// `samples` samples.
func flatVMs(n int, cpu, mem float64, samples int) []VMDemand {
	out := make([]VMDemand, n)
	for i := range out {
		c := make([]float64, samples)
		m := make([]float64, samples)
		for s := range c {
			c[s] = cpu
			m[s] = mem
		}
		out[i] = VMDemand{ID: i, CPU: c, Mem: m}
	}
	return out
}

// antiphaseVMs builds pairs of VMs with complementary (anti-correlated)
// CPU patterns: one peaks in the first half, the other in the second.
func antiphaseVMs(pairs int, lo, hi, mem float64, samples int) []VMDemand {
	var out []VMDemand
	for p := 0; p < pairs; p++ {
		a := make([]float64, samples)
		b := make([]float64, samples)
		m := make([]float64, samples)
		for s := 0; s < samples; s++ {
			if s < samples/2 {
				a[s], b[s] = hi, lo
			} else {
				a[s], b[s] = lo, hi
			}
			m[s] = mem
		}
		out = append(out,
			VMDemand{ID: 2 * p, CPU: a, Mem: m},
			VMDemand{ID: 2*p + 1, CPU: b, Mem: m})
	}
	return out
}

func newEPACT() *EPACT { return &EPACT{Model: power.NTCServer()} }

func TestEPACTCase1Selected(t *testing.T) {
	// CPU-heavy, memory-light: the CPU server count dominates.
	vms := flatVMs(64, 80, 10, 12)
	a, err := newEPACT().Allocate(vms, ntcSpec())
	if err != nil {
		t.Fatal(err)
	}
	if a.EPACTCase != 1 {
		t.Errorf("EPACT case = %d, want 1", a.EPACTCase)
	}
	if err := a.Validate(len(vms)); err != nil {
		t.Error(err)
	}
}

func TestEPACTCase2Selected(t *testing.T) {
	// Memory-heavy, CPU-light: the memory server count dominates.
	// 64 VMs x 90 mem points = 5760 -> ceil(5760/1600) = 4 servers by
	// memory; CPU peak 64 x 4 = 256 -> at 1.9 GHz needs 1 server.
	vms := flatVMs(64, 4, 90, 12)
	a, err := newEPACT().Allocate(vms, ntcSpec())
	if err != nil {
		t.Fatal(err)
	}
	if a.EPACTCase != 2 {
		t.Errorf("EPACT case = %d, want 2", a.EPACTCase)
	}
	if err := a.Validate(len(vms)); err != nil {
		t.Error(err)
	}
	// Memory must be respected: no server above its container points.
	for i, s := range a.Servers {
		for _, m := range s.Mem {
			if m > ntcSpec().MemPoints()+1e-9 {
				t.Errorf("server %d memory %v exceeds capacity", i, m)
			}
		}
	}
}

func TestEPACTPlansNearOptimalFrequency(t *testing.T) {
	// With abundant memory headroom, case 1 should plan the slot
	// frequency near the server's optimum (≈1.9 GHz), not F_max.
	vms := flatVMs(128, 75, 8, 12)
	a, err := newEPACT().Allocate(vms, ntcSpec())
	if err != nil {
		t.Fatal(err)
	}
	if got := a.PlannedFreq.GHz(); got < 1.5 || got > 2.3 {
		t.Errorf("planned frequency = %v, want ≈1.9 GHz", a.PlannedFreq)
	}
	// The cap must match the planned frequency.
	wantCap := 1600 * a.PlannedFreq.GHz() / 3.1
	if math.Abs(a.CPUCapPoints-wantCap) > 1e-6 {
		t.Errorf("cap = %.1f points, want %.1f", a.CPUCapPoints, wantCap)
	}
}

func TestEPACTUsesMoreServersThanCOAT(t *testing.T) {
	// The paper's headline structural difference (Fig. 5): EPACT's
	// ≈1.9 GHz cap spreads VMs over ~1.6x the servers consolidation
	// uses.
	vms := flatVMs(96, 70, 15, 12)
	spec := ntcSpec()
	epact, err := newEPACT().Allocate(vms, spec)
	if err != nil {
		t.Fatal(err)
	}
	coat, err := NewCOAT(spec).Allocate(vms, spec)
	if err != nil {
		t.Fatal(err)
	}
	re := float64(epact.ActiveServers())
	rc := float64(coat.ActiveServers())
	if re <= rc {
		t.Errorf("EPACT servers %d should exceed COAT %d", epact.ActiveServers(), coat.ActiveServers())
	}
	if ratio := re / rc; ratio < 1.3 || ratio > 2.2 {
		t.Errorf("EPACT/COAT server ratio = %.2f, want ≈1.6 (FMax/FOpt)", ratio)
	}
}

func TestAlg1PairsAntiCorrelatedVMs(t *testing.T) {
	// Algorithm 1 should co-locate complementary patterns: a pair of
	// anti-phase VMs sums to a flat load and packs tighter than two
	// correlated peaks would.
	spec := ntcSpec()
	vms := antiphaseVMs(8, 10, 90, 10, 12)
	a := new(Assignment)
	allocate1D(new(epactScratch), a, vms, 200, spec.MemPoints())
	// With cap 200 points: an anti-phase pair aggregates to a flat
	// 100; two in-phase VMs would peak at 180 and also fit — but the
	// correlation rule must prefer the complementary partner, so
	// servers mixing both phases should dominate.
	mixed := 0
	for _, s := range a.Servers {
		if len(s.VMs) < 2 {
			continue
		}
		hasA, hasB := false, false
		for _, vm := range s.VMs {
			if vm%2 == 0 {
				hasA = true
			} else {
				hasB = true
			}
		}
		if hasA && hasB {
			mixed++
		}
	}
	if mixed == 0 {
		t.Error("no server mixes anti-phase VMs; correlation matching ineffective")
	}
}

func TestCOATConsolidatesToFewestServers(t *testing.T) {
	spec := ntcSpec()
	// 32 VMs of flat 50 points: 1600/50 = 32 per server -> 1 server.
	vms := flatVMs(32, 50, 10, 12)
	a, err := NewCOAT(spec).Allocate(vms, spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.ActiveServers(); got != 1 {
		t.Errorf("COAT servers = %d, want 1", got)
	}
	if err := a.Validate(len(vms)); err != nil {
		t.Error(err)
	}
}

func TestCOATRespectsCap(t *testing.T) {
	spec := ntcSpec()
	vms := flatVMs(100, 63, 12, 12)
	a, err := NewCOAT(spec).Allocate(vms, spec)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range a.Servers {
		if peak := s.PeakCPU(); peak > a.CPUCapPoints+1e-9 {
			t.Errorf("server %d peak %.1f exceeds cap %.1f", i, peak, a.CPUCapPoints)
		}
	}
}

func TestCOATOPTUsesMoreServersThanCOAT(t *testing.T) {
	spec := ntcSpec()
	vms := flatVMs(96, 70, 15, 12)
	coat, err := NewCOAT(spec).Allocate(vms, spec)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := NewCOATOPT(spec, units.GHz(1.9)).Allocate(vms, spec)
	if err != nil {
		t.Fatal(err)
	}
	if opt.ActiveServers() <= coat.ActiveServers() {
		t.Errorf("COAT-OPT servers %d should exceed COAT %d",
			opt.ActiveServers(), coat.ActiveServers())
	}
	if opt.Policy != "COAT-OPT" || coat.Policy != "COAT" {
		t.Errorf("names = %q, %q", opt.Policy, coat.Policy)
	}
}

func TestMemoryCapBindsAllocation(t *testing.T) {
	spec := ntcSpec()
	// 20 VMs at 90 mem points each: 1600/90 = 17 per server by memory
	// even though CPU (5 points) would allow hundreds.
	vms := flatVMs(20, 5, 90, 12)
	a, err := NewCOAT(spec).Allocate(vms, spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.ActiveServers(); got != 2 {
		t.Errorf("servers = %d, want 2 (memory-bound)", got)
	}
}

func TestFFDBaseline(t *testing.T) {
	spec := ntcSpec()
	vms := flatVMs(48, 60, 10, 12)
	a, err := NewFFD().Allocate(vms, spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(len(vms)); err != nil {
		t.Error(err)
	}
	// 1600/60 = 26 per server -> 2 servers.
	if got := a.ActiveServers(); got != 2 {
		t.Errorf("FFD servers = %d, want 2", got)
	}
}

func TestLoadBalanceSpreadsEvenly(t *testing.T) {
	spec := ntcSpec()
	vms := flatVMs(40, 50, 10, 12)
	lb := &LoadBalance{Servers: 10}
	a, err := lb.Allocate(vms, spec)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range a.Servers {
		if len(s.VMs) != 4 {
			t.Errorf("server %d has %d VMs, want 4 (even spread)", i, len(s.VMs))
		}
	}
	// Auto-sized pool must also work.
	auto := &LoadBalance{}
	if _, err := auto.Allocate(vms, spec); err != nil {
		t.Error(err)
	}
}

func TestInputValidation(t *testing.T) {
	spec := ntcSpec()
	policies := []Policy{newEPACT(), NewCOAT(spec), NewCOATOPT(spec, units.GHz(1.9)), NewFFD(), NewVerma(), &LoadBalance{Servers: 2}}
	// VM 1's sample 1 is x on the CPU side or the memory side.
	withCPU := func(x float64) []VMDemand {
		return []VMDemand{{ID: 0, CPU: []float64{10, 10}, Mem: []float64{5, 5}}, {ID: 1, CPU: []float64{20, x}, Mem: []float64{5, 5}}}
	}
	withMem := func(x float64) []VMDemand {
		return []VMDemand{{ID: 0, CPU: []float64{10, 10}, Mem: []float64{5, 5}}, {ID: 1, CPU: []float64{20, 20}, Mem: []float64{5, x}}}
	}
	specWith := func(mutate func(*ServerSpec)) ServerSpec {
		s := spec
		mutate(&s)
		return s
	}
	nonFinite := []struct {
		name string
		vms  []VMDemand
		spec ServerSpec
		want []string // what the error must name
	}{
		{"nan-cpu", withCPU(math.NaN()), spec, []string{"VM 1", "CPU", "sample 1"}},
		{"inf-cpu", withCPU(math.Inf(1)), spec, []string{"VM 1", "CPU", "sample 1"}},
		{"nan-mem", withMem(math.NaN()), spec, []string{"VM 1", "Mem", "sample 1"}},
		{"inf-mem", withMem(math.Inf(1)), spec, []string{"VM 1", "Mem", "sample 1"}},
		{"nan-mem-containers", withCPU(10), specWith(func(s *ServerSpec) { s.MemContainers = math.NaN() }), []string{"MemContainers"}},
		{"nan-fmax", withCPU(10), specWith(func(s *ServerSpec) { s.FMax = units.Frequency(math.NaN()) }), []string{"FMax"}},
		{"nan-fmin", withCPU(10), specWith(func(s *ServerSpec) { s.FMin = units.Frequency(math.NaN()) }), []string{"FMin"}},
	}
	for _, p := range policies {
		for _, c := range nonFinite {
			_, err := p.Allocate(c.vms, c.spec)
			if err == nil {
				t.Errorf("%s: %s accepted", p.Name(), c.name)
				continue
			}
			for _, w := range c.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("%s: %s: error %q does not name %q", p.Name(), c.name, err, w)
				}
			}
		}
		if _, err := p.Allocate(nil, spec); err == nil {
			t.Errorf("%s: empty input accepted", p.Name())
		}
		ragged := []VMDemand{
			{ID: 0, CPU: []float64{1, 2}, Mem: []float64{1, 2}},
			{ID: 1, CPU: []float64{1}, Mem: []float64{1}},
		}
		if _, err := p.Allocate(ragged, spec); err == nil {
			t.Errorf("%s: ragged input accepted", p.Name())
		}
		negative := []VMDemand{{ID: 0, CPU: []float64{-1}, Mem: []float64{0}}}
		if _, err := p.Allocate(negative, spec); err == nil {
			t.Errorf("%s: negative demand accepted", p.Name())
		}
	}
	if _, err := NewCOAT(spec).Allocate(flatVMs(2, 10, 10, 4), ServerSpec{}); err == nil {
		t.Error("invalid spec accepted")
	}
}

func TestAssignmentValidateCatchesCorruption(t *testing.T) {
	spec := ntcSpec()
	vms := flatVMs(8, 40, 10, 6)
	a, err := NewCOAT(spec).Allocate(vms, spec)
	if err != nil {
		t.Fatal(err)
	}
	a.VMServer[3] = 99
	if err := a.Validate(len(vms)); err == nil {
		t.Error("corrupt assignment validated")
	}
}

func TestAllPoliciesAssignEveryVM(t *testing.T) {
	spec := ntcSpec()
	inputs := []struct {
		name string
		vms  []VMDemand
		// equalPeaks: every VM has the same peak CPU, so the
		// peak-ordered policies (all but EPACT) must place VMs in
		// index order and each server's VM list comes out ascending.
		equalPeaks bool
	}{
		{"antiphase", antiphaseVMs(30, 15, 85, 20, 12), false},
		{"equal-peaks", flatVMs(40, 30, 10, 12), true},
	}
	policies := []Policy{
		newEPACT(),
		NewCOAT(spec),
		NewCOATOPT(spec, units.GHz(1.9)),
		NewFFD(),
		NewVerma(),
		&LoadBalance{Servers: 20},
	}
	for _, in := range inputs {
		for _, p := range policies {
			a, err := p.Allocate(in.vms, spec)
			if err != nil {
				t.Fatalf("%s %s: %v", in.name, p.Name(), err)
			}
			if err := a.Validate(len(in.vms)); err != nil {
				t.Errorf("%s %s: %v", in.name, p.Name(), err)
			}
			if !in.equalPeaks || p.Name() == "EPACT" {
				continue
			}
			for j, srv := range a.Servers {
				for k := 1; k < len(srv.VMs); k++ {
					if srv.VMs[k] < srv.VMs[k-1] {
						t.Errorf("%s %s: server %d places VMs %v, want index order", in.name, p.Name(), j, srv.VMs)
						break
					}
				}
			}
		}
	}
}
