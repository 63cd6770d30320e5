package alloc

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/mathx"
	"repro/internal/power"
	"repro/internal/units"
)

// This file keeps verbatim copies of the baselines as they were when
// each call built a fresh Assignment (COAT and COAT-OPT, FFD, load
// balancing, Verma-binary, and their sort.SliceStable peak order), and
// property-tests that the in-place implementations, refilling one
// reused Assignment, place every VM exactly as they did. A change to
// baselines.go, coat.go or verma.go that alters a placement, or a
// reused Assignment that carries anything over from its previous
// fill, fails here before the golden figures do.

// byPeakCPU returns the VM indices ordered by descending peak CPU,
// equal peaks in index order, together with each VM's peak (indexed by
// VM). Each peak is computed once rather than on every comparison.
func refByPeakCPU(vms []VMDemand) (order []int, peak []float64) {
	order = make([]int, len(vms))
	peak = make([]float64, len(vms))
	for i := range vms {
		order[i] = i
		peak[i] = vms[i].PeakCPU()
	}
	sort.SliceStable(order, func(a, b int) bool { return peak[order[a]] > peak[order[b]] })
	return order, peak
}

// refFFDAllocate is plain first-fit-decreasing at the full cap, the
// reference NewFFD (COAT without the correlation filter) must match.
func refFFDAllocate(vms []VMDemand, spec ServerSpec) (*Assignment, error) {
	if err := checkInput(vms, spec); err != nil {
		return nil, err
	}
	capCPU := spec.CPUPoints()
	capMem := spec.MemPoints()
	order, _ := refByPeakCPU(vms)

	var servers []*ServerPlan
	vmServer := make([]int, len(vms))
	for i := range vmServer {
		vmServer[i] = -1
	}
	for _, idx := range order {
		vm := &vms[idx]
		target := -1
		for j, srv := range servers {
			if srv.fits(vm, capCPU, capMem) {
				target = j
				break
			}
		}
		if target < 0 {
			servers = append(servers, &ServerPlan{})
			target = len(servers) - 1
		}
		servers[target].add(idx, vm)
		vmServer[idx] = target
	}
	return &Assignment{
		Policy:       "FFD",
		Servers:      servers,
		VMServer:     vmServer,
		CPUCapPoints: capCPU,
		MemCapPoints: capMem,
		PlannedFreq:  spec.FMax,
	}, nil
}

// refLoadBalanceAllocate is LoadBalance.Allocate.
func refLoadBalanceAllocate(l *LoadBalance, vms []VMDemand, spec ServerSpec) (*Assignment, error) {
	if err := checkInput(vms, spec); err != nil {
		return nil, err
	}
	order, peak := refByPeakCPU(vms)
	n := l.Servers
	if n <= 0 {
		var total float64
		for _, p := range peak {
			total += p
		}
		n = int(total/(spec.CPUPoints()*0.5)) + 1
	}
	servers := make([]*ServerPlan, n)
	for i := range servers {
		servers[i] = &ServerPlan{}
	}
	vmServer := make([]int, len(vms))
	for _, idx := range order {
		// Least-loaded by current peak CPU.
		best, bestPeak := 0, servers[0].PeakCPU()
		for j := 1; j < n; j++ {
			if p := servers[j].PeakCPU(); p < bestPeak {
				best, bestPeak = j, p
			}
		}
		servers[best].add(idx, &vms[idx])
		vmServer[idx] = best
	}
	return &Assignment{
		Policy:       l.Name(),
		Servers:      servers,
		VMServer:     vmServer,
		CPUCapPoints: spec.CPUPoints(),
		MemCapPoints: spec.MemPoints(),
		PlannedFreq:  spec.FMax,
	}, nil
}

// refCOATAllocate is COAT.Allocate: first-fit-decreasing over peak CPU with
// a correlation filter — among open servers that fit, prefer the first
// whose aggregated load correlates with the VM below the threshold
// (separating correlated VMs); if none qualifies, fall back to the
// first feasible server; if nothing fits, open a new server.
func refCOATAllocate(c *COAT, vms []VMDemand, spec ServerSpec) (*Assignment, error) {
	if err := checkInput(vms, spec); err != nil {
		return nil, err
	}
	capCPU := spec.CPUPoints() * c.CapFrac
	capMem := spec.MemPoints()
	order, _ := refByPeakCPU(vms)

	var servers []*ServerPlan
	vmServer := make([]int, len(vms))
	for i := range vmServer {
		vmServer[i] = -1
	}

	for _, idx := range order {
		vm := &vms[idx]
		firstFit := -1
		uncorrelatedFit := -1
		for j, srv := range servers {
			if !srv.fits(vm, capCPU, capMem) {
				continue
			}
			if firstFit < 0 {
				firstFit = j
			}
			if c.CorrThreshold > 0 && len(srv.VMs) > 0 {
				phi, err := mathx.Pearson(srv.CPU, vm.CPU)
				if err != nil {
					return nil, err
				}
				if phi <= c.CorrThreshold {
					uncorrelatedFit = j
					break
				}
			} else {
				uncorrelatedFit = j
				break
			}
		}
		target := uncorrelatedFit
		if target < 0 {
			target = firstFit
		}
		if target < 0 {
			servers = append(servers, &ServerPlan{})
			target = len(servers) - 1
		}
		servers[target].add(idx, vm)
		vmServer[idx] = target
	}

	planned := c.PlannedFreq
	if planned == 0 {
		planned = spec.FMax
	}
	return &Assignment{
		Policy:       c.Name(),
		Servers:      servers,
		VMServer:     vmServer,
		CPUCapPoints: capCPU,
		MemCapPoints: capMem,
		PlannedFreq:  planned,
		FixedFreq:    c.FixedFreq,
	}, nil
}

// refBinarise quantises a pattern to 0/1 against the VM's own peak.
func refBinarise(v *Verma, pattern []float64) []float64 {
	peak := mathx.Max(pattern)
	out := make([]float64, len(pattern))
	if peak <= 0 {
		return out
	}
	thresh := v.PeakThresholdFrac * peak
	for i, x := range pattern {
		if x >= thresh {
			out[i] = 1
		}
	}
	return out
}

// refVermaAllocate is Verma.Allocate: first-fit-decreasing against the cap,
// preferring servers whose *binary* peak sequence is least correlated
// with the VM's — the quantisation loses the envelope information
// COAT and EPACT keep, which is the point of the baseline.
func refVermaAllocate(v *Verma, vms []VMDemand, spec ServerSpec) (*Assignment, error) {
	if err := checkInput(vms, spec); err != nil {
		return nil, err
	}
	frac := v.CapFrac
	if frac <= 0 {
		frac = 1
	}
	capCPU := spec.CPUPoints() * frac
	capMem := spec.MemPoints()
	order, _ := refByPeakCPU(vms)

	binary := make([][]float64, len(vms))
	for i := range vms {
		binary[i] = refBinarise(v, vms[i].CPU)
	}

	var servers []*ServerPlan
	var serverBinary [][]float64
	vmServer := make([]int, len(vms))
	for i := range vmServer {
		vmServer[i] = -1
	}

	for _, idx := range order {
		vm := &vms[idx]
		best, bestPhi := -1, 2.0 // minimise binary correlation
		for j, srv := range servers {
			if !srv.fits(vm, capCPU, capMem) {
				continue
			}
			phi, err := mathx.Pearson(serverBinary[j], binary[idx])
			if err != nil {
				return nil, err
			}
			if phi < bestPhi {
				best, bestPhi = j, phi
			}
		}
		if best < 0 {
			servers = append(servers, &ServerPlan{})
			serverBinary = append(serverBinary, make([]float64, len(vm.CPU)))
			best = len(servers) - 1
		}
		servers[best].add(idx, vm)
		for i := range binary[idx] {
			serverBinary[best][i] += binary[idx][i]
		}
		vmServer[idx] = best
	}

	return &Assignment{
		Policy:       v.Name(),
		Servers:      servers,
		VMServer:     vmServer,
		CPUCapPoints: capCPU,
		MemCapPoints: capMem,
		PlannedFreq:  spec.FMax,
		FixedFreq:    true, // consolidation-era policy: race at F_max
	}, nil
}

// tiedVMs draws count VMs whose samples come from eleven levels, so
// peaks tie often (the stable order's index tie-breaks decide), with
// all-zero and duplicated patterns among them.
func tiedVMs(r *epactRNG, count, n int, cpuStep, memStep float64) []VMDemand {
	vms := make([]VMDemand, count)
	for i := range vms {
		cpu, mem := make([]float64, n), make([]float64, n)
		switch {
		case i%13 == 5:
			// All zero: Verma's peak <= 0 branch.
		case i%7 == 2 && i > 0:
			copy(cpu, vms[i-1].CPU)
			copy(mem, vms[i-1].Mem)
		default:
			for s := range cpu {
				cpu[s] = cpuStep * float64(int(r.next()*11))
				mem[s] = memStep * float64(int(r.next()*11))
			}
		}
		vms[i] = VMDemand{ID: i, CPU: cpu, Mem: mem}
	}
	return vms
}

func TestByPeakCPUMatchesReference(t *testing.T) {
	r := &epactRNG{s: 0x5eed5eed5eed}
	var sc baseScratch // reused across trials, as the pool reuses it
	for trial := 0; trial < 200; trial++ {
		vms := tiedVMs(r, 1+int(r.next()*90), 1+int(r.next()*12), 9, 3)
		order, peak := sc.byPeakCPU(vms)
		wantOrder, wantPeak := refByPeakCPU(vms)
		if !slices.Equal(order, wantOrder) || !slices.Equal(peak, wantPeak) {
			t.Fatalf("trial %d: order %v, reference %v", trial, order, wantOrder)
		}
	}
}

// TestFillersMatchReferenceOnReusedAssignment: every policy, refilling
// one Assignment that the previous call (of any policy, on more or
// fewer VMs) left behind, places every VM exactly as its fresh-result
// reference does, down to the plan patterns' bits and every scalar
// field.
func TestFillersMatchReferenceOnReusedAssignment(t *testing.T) {
	spec := ServerSpec{Cores: 16, MemContainers: 16, FMax: units.GHz(3.1), FMin: units.GHz(0.1)}
	epact := &EPACT{Model: power.NTCServer()}
	coat, coatOpt := NewCOAT(spec), NewCOATOPT(spec, units.GHz(1.9))
	ffd, verma := NewFFD(), NewVerma()
	lbAuto, lbFixed := &LoadBalance{}, &LoadBalance{Servers: 7}
	cases := []struct {
		pol Filler
		ref func(vms []VMDemand) (*Assignment, error)
	}{
		{epact, func(vms []VMDemand) (*Assignment, error) { return refAllocate(epact, vms, spec) }},
		{coat, func(vms []VMDemand) (*Assignment, error) { return refCOATAllocate(coat, vms, spec) }},
		{coatOpt, func(vms []VMDemand) (*Assignment, error) { return refCOATAllocate(coatOpt, vms, spec) }},
		{ffd, func(vms []VMDemand) (*Assignment, error) { return refFFDAllocate(vms, spec) }},
		{verma, func(vms []VMDemand) (*Assignment, error) { return refVermaAllocate(verma, vms, spec) }},
		{lbAuto, func(vms []VMDemand) (*Assignment, error) { return refLoadBalanceAllocate(lbAuto, vms, spec) }},
		{lbFixed, func(vms []VMDemand) (*Assignment, error) { return refLoadBalanceAllocate(lbFixed, vms, spec) }},
	}
	if err := epact.init(); err != nil {
		t.Fatal(err)
	}
	r := &epactRNG{s: 0xabad1dea}
	dst := new(Assignment)
	sawCase := map[int]int{}
	for trial := 0; trial < 280; trial++ {
		c := cases[trial%len(cases)]
		// The VM count grows and shrinks between calls; every other
		// round of policies is memory-dominated, so EPACT takes both
		// of its cases.
		cpuStep, memStep := 9.0, 3.0
		if trial/len(cases)%2 == 1 {
			cpuStep, memStep = 2.5, 9.5
		}
		vms := tiedVMs(r, 1+int(r.next()*120), 12, cpuStep, memStep)
		want, err := c.ref(vms)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.pol.AllocateInto(dst, vms, spec); err != nil {
			t.Fatal(err)
		}
		assertAssignmentsBitEqual(t, fmt.Sprintf("trial %d %s, %d VMs", trial, c.pol.Name(), len(vms)), dst, want)
		if c.pol == Filler(epact) {
			sawCase[dst.EPACTCase]++
		}
	}
	if sawCase[1] == 0 || sawCase[2] == 0 {
		t.Errorf("EPACT cases exercised: %v, want both", sawCase)
	}
}
