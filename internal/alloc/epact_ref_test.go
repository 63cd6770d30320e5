package alloc

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/mathx"
	"repro/internal/power"
	"repro/internal/units"
)

// This file keeps a verbatim copy of the straightforward EPACT
// implementation (per-pair mathx.Pearson / refComplement /
// refL2Distance, no cached statistics, no capacity screens) and
// property-tests that the optimised implementation in epact.go
// produces bit-identical assignments. If a future change to epact.go
// alters any placement decision, these tests fail before the golden
// figures do.

func refAllocate1D(vms []VMDemand, capCPU, capMem float64) (*Assignment, error) {
	order := make([]int, len(vms))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return vms[order[a]].PeakCPU() > vms[order[b]].PeakCPU()
	})

	assigned := make([]bool, len(vms))
	vmServer := make([]int, len(vms))
	for i := range vmServer {
		vmServer[i] = -1
	}
	var servers []*ServerPlan
	remaining := len(vms)

	cur := &ServerPlan{}
	servers = append(servers, cur)
	for remaining > 0 {
		if len(cur.VMs) == 0 {
			for _, idx := range order {
				if assigned[idx] {
					continue
				}
				cur.add(idx, &vms[idx])
				vmServer[idx] = len(servers) - 1
				assigned[idx] = true
				remaining--
				break
			}
			continue
		}
		pattCom := refComplement(cur.CPU)
		bestIdx, bestPhi := -1, math.Inf(-1)
		for _, idx := range order {
			if assigned[idx] {
				continue
			}
			if !cur.fits(&vms[idx], capCPU, capMem) {
				continue
			}
			phi, err := mathx.Pearson(pattCom, vms[idx].CPU)
			if err != nil {
				return nil, err
			}
			if phi > bestPhi {
				bestIdx, bestPhi = idx, phi
			}
		}
		if bestIdx < 0 {
			cur = &ServerPlan{}
			servers = append(servers, cur)
			continue
		}
		cur.add(bestIdx, &vms[bestIdx])
		vmServer[bestIdx] = len(servers) - 1
		assigned[bestIdx] = true
		remaining--
	}
	return &Assignment{Servers: servers, VMServer: vmServer}, nil
}

// refL2Distance returns the Euclidean distance between x and y, as
// used by EPACT's 2-D merit function (Eq. 2 of the paper). It returns
// mathx.ErrLengthMismatch when the series lengths differ.
func refL2Distance(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, mathx.ErrLengthMismatch
	}
	ss := 0.0
	for i := range x {
		d := x[i] - y[i]
		ss += d * d
	}
	return math.Sqrt(ss), nil
}

// refComplement returns max(x) - x element-wise: the "complementary
// utilisation pattern" of Algorithms 1 and 2 in the paper.
func refComplement(x []float64) []float64 {
	if len(x) == 0 {
		return nil
	}
	m := mathx.Max(x)
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = m - v
	}
	return out
}

func refEq2Merit(srv *ServerPlan, vm *VMDemand, capCPU, capMem, wCPU, wMem float64) (float64, error) {
	const minDist = 1e-6
	n := len(vm.CPU)

	srvCPU := srv.CPU
	srvMem := srv.Mem
	if srvCPU == nil {
		srvCPU = make([]float64, n)
		srvMem = make([]float64, n)
	}

	phiCPU, err := mathx.Pearson(refComplement(srvCPU), vm.CPU)
	if err != nil {
		return 0, err
	}
	phiMem, err := mathx.Pearson(refComplement(srvMem), vm.Mem)
	if err != nil {
		return 0, err
	}

	remCPU := make([]float64, n)
	remMem := make([]float64, n)
	for i := 0; i < n; i++ {
		remCPU[i] = capCPU - srvCPU[i]
		remMem[i] = capMem - srvMem[i]
	}
	distCPU, err := refL2Distance(vm.CPU, remCPU)
	if err != nil {
		return 0, err
	}
	distMem, err := refL2Distance(vm.Mem, remMem)
	if err != nil {
		return 0, err
	}
	if distCPU < minDist {
		distCPU = minDist
	}
	if distMem < minDist {
		distMem = minDist
	}
	return wCPU*phiCPU/distCPU + wMem*phiMem/distMem, nil
}

func refAllocateCase2(e *EPACT, vms []VMDemand, spec ServerSpec, nMem int, peakCPU float64) (*Assignment, error) {
	fOpt := e.slotFrequency(peakCPU, nMem, spec)
	capCPU := spec.CPUPoints() * fOpt.GHz() / spec.FMax.GHz()
	capMem := spec.MemPoints()

	servers := make([]*ServerPlan, nMem)
	for i := range servers {
		servers[i] = &ServerPlan{}
	}
	vmServer := make([]int, len(vms))
	for i := range vmServer {
		vmServer[i] = -1
	}

	order := make([]int, len(vms))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return vms[order[a]].PeakCPU()+vms[order[a]].PeakMem() >
			vms[order[b]].PeakCPU()+vms[order[b]].PeakMem()
	})

	wCPU := capCPU / (capCPU + capMem)
	wMem := capMem / (capCPU + capMem)

	for _, idx := range order {
		vm := &vms[idx]
		bestServer, bestMerit := -1, math.Inf(-1)
		for j, srv := range servers {
			if !srv.fits(vm, capCPU, capMem) {
				continue
			}
			merit, err := refEq2Merit(srv, vm, capCPU, capMem, wCPU, wMem)
			if err != nil {
				return nil, err
			}
			if merit > bestMerit {
				bestServer, bestMerit = j, merit
			}
		}
		if bestServer < 0 {
			servers = append(servers, &ServerPlan{})
			bestServer = len(servers) - 1
		}
		servers[bestServer].add(idx, vm)
		vmServer[idx] = bestServer
	}

	return &Assignment{
		Policy:       e.Name(),
		Servers:      servers,
		VMServer:     vmServer,
		CPUCapPoints: capCPU,
		MemCapPoints: capMem,
		PlannedFreq:  fOpt,
		EPACTCase:    2,
	}, nil
}

// refAllocate runs the whole reference EPACT (old serverCounts fold
// order included — the sample-outer loop it used accumulates the same
// addends in the same order as the VM-outer loop in epact.go).
func refAllocate(e *EPACT, vms []VMDemand, spec ServerSpec) (*Assignment, error) {
	if err := checkInput(vms, spec); err != nil {
		return nil, err
	}
	n := len(vms[0].CPU)
	peakCPU, peakMem := 0.0, 0.0
	for s := 0; s < n; s++ {
		var cpu, mem float64
		for i := range vms {
			cpu += vms[i].CPU[s]
			mem += vms[i].Mem[s]
		}
		peakCPU = math.Max(peakCPU, cpu)
		peakMem = math.Max(peakMem, mem)
	}
	fOpt := e.fOptNTC()
	nCPU := int(math.Ceil(peakCPU * spec.FMax.GHz() / (fOpt.GHz() * spec.CPUPoints())))
	nMem := int(math.Ceil(peakMem / spec.MemPoints()))
	if nCPU < 1 {
		nCPU = 1
	}
	if nMem < 1 {
		nMem = 1
	}
	if nCPU > nMem {
		bestN, bestF, bestP := 0, units.Frequency(0), math.Inf(1)
		for cnt := nMem; cnt <= nCPU; cnt++ {
			needGHz := peakCPU * spec.FMax.GHz() / (float64(cnt) * spec.CPUPoints())
			if needGHz > spec.FMax.GHz()+1e-9 {
				continue
			}
			f := e.slotFrequency(peakCPU, cnt, spec)
			p := float64(cnt) * e.Model.CPUBoundPower(f).W()
			if p < bestP {
				bestN, bestF, bestP = cnt, f, p
			}
		}
		if bestN == 0 {
			return nil, fmt.Errorf("no feasible count")
		}
		capCPU := spec.CPUPoints() * bestF.GHz() / spec.FMax.GHz()
		capMem := spec.MemPoints()
		a, err := refAllocate1D(vms, capCPU, capMem)
		if err != nil {
			return nil, err
		}
		a.Policy = e.Name()
		a.CPUCapPoints = capCPU
		a.MemCapPoints = capMem
		a.PlannedFreq = bestF
		a.EPACTCase = 1
		return a, nil
	}
	return refAllocateCase2(e, vms, spec, nMem, peakCPU)
}

// epactRNG is a deterministic xorshift generator for test inputs.
type epactRNG struct{ s uint64 }

func (r *epactRNG) next() float64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return float64(r.s>>11) / float64(1<<53)
}

// genVMs synthesises a demand set with the shapes that stress the
// cached statistics: smooth random walks, flat (zero-variance)
// patterns, duplicated patterns (Pearson ties) and occasional spikes.
func genVMs(r *epactRNG, count, n int, cpuScale, memScale float64) []VMDemand {
	vms := make([]VMDemand, count)
	for i := range vms {
		cpu := make([]float64, n)
		mem := make([]float64, n)
		switch {
		case i%11 == 3:
			// Constant pattern: syy == 0 edge of Pearson.
			level := r.next() * cpuScale
			mLevel := r.next() * memScale
			for s := 0; s < n; s++ {
				cpu[s], mem[s] = level, mLevel
			}
		case i%7 == 5 && i > 0:
			// Duplicate of the previous VM: exercises φ ties.
			copy(cpu, vms[i-1].CPU)
			copy(mem, vms[i-1].Mem)
		default:
			c := r.next() * cpuScale
			m := r.next() * memScale
			for s := 0; s < n; s++ {
				c += (r.next() - 0.5) * cpuScale * 0.3
				m += (r.next() - 0.5) * memScale * 0.3
				if c < 0 {
					c = 0
				}
				if m < 0 {
					m = 0
				}
				if r.next() < 0.02 {
					c += cpuScale
				}
				cpu[s], mem[s] = c, m
			}
		}
		vms[i] = VMDemand{ID: i, CPU: cpu, Mem: mem}
	}
	return vms
}

func assertAssignmentsBitEqual(t *testing.T, tag string, got, want *Assignment) {
	t.Helper()
	if got.Policy != want.Policy || got.EPACTCase != want.EPACTCase ||
		got.PlannedFreq != want.PlannedFreq || got.FixedFreq != want.FixedFreq ||
		math.Float64bits(got.CPUCapPoints) != math.Float64bits(want.CPUCapPoints) ||
		math.Float64bits(got.MemCapPoints) != math.Float64bits(want.MemCapPoints) {
		t.Fatalf("%s: header mismatch: got {%s case=%d f=%v fixed=%v capC=%v capM=%v} want {%s case=%d f=%v fixed=%v capC=%v capM=%v}",
			tag, got.Policy, got.EPACTCase, got.PlannedFreq, got.FixedFreq, got.CPUCapPoints, got.MemCapPoints,
			want.Policy, want.EPACTCase, want.PlannedFreq, want.FixedFreq, want.CPUCapPoints, want.MemCapPoints)
	}
	if len(got.VMServer) != len(want.VMServer) {
		t.Fatalf("%s: VMServer length %d vs %d", tag, len(got.VMServer), len(want.VMServer))
	}
	for i := range got.VMServer {
		if got.VMServer[i] != want.VMServer[i] {
			t.Fatalf("%s: VM %d on server %d, reference says %d", tag, i, got.VMServer[i], want.VMServer[i])
		}
	}
	if len(got.Servers) != len(want.Servers) {
		t.Fatalf("%s: %d servers vs %d", tag, len(got.Servers), len(want.Servers))
	}
	for j := range got.Servers {
		g, w := got.Servers[j], want.Servers[j]
		if len(g.VMs) != len(w.VMs) {
			t.Fatalf("%s: server %d has %d VMs vs %d", tag, j, len(g.VMs), len(w.VMs))
		}
		for k := range g.VMs {
			if g.VMs[k] != w.VMs[k] {
				t.Fatalf("%s: server %d VM list diverges at %d: %d vs %d", tag, j, k, g.VMs[k], w.VMs[k])
			}
		}
		if len(w.VMs) == 0 {
			continue // an empty server's patterns are zero, or not built
		}
		if len(g.CPU) != len(w.CPU) || len(g.Mem) != len(w.Mem) {
			t.Fatalf("%s: server %d patterns have %d/%d samples vs %d/%d", tag, j, len(g.CPU), len(g.Mem), len(w.CPU), len(w.Mem))
		}
		for i := range g.CPU {
			if math.Float64bits(g.CPU[i]) != math.Float64bits(w.CPU[i]) ||
				math.Float64bits(g.Mem[i]) != math.Float64bits(w.Mem[i]) {
				t.Fatalf("%s: server %d aggregate pattern bit mismatch at sample %d", tag, j, i)
			}
		}
	}
}

func TestAllocate1DMatchesReference(t *testing.T) {
	r := &epactRNG{s: 0x123456789abcdef}
	sc, got := new(epactScratch), new(Assignment) // reused: every trial refills them
	check := func(tag string, vms []VMDemand, capCPU, capMem float64) {
		t.Helper()
		allocate1D(sc, got, vms, capCPU, capMem)
		want, err := refAllocate1D(vms, capCPU, capMem)
		if err != nil {
			t.Fatal(err)
		}
		assertAssignmentsBitEqual(t, tag, got, want)
	}
	for trial := 0; trial < 40; trial++ {
		count := 10 + int(r.next()*60)
		vms := genVMs(r, count, 12, 80, 40)
		capCPU := 400 + r.next()*1200
		capMem := 800 + r.next()*1200
		check(fmt.Sprintf("trial %d", trial), vms, capCPU, capMem)
	}
	// Each family below reaches a round shape the mix above leaves
	// rare, and each fails if allocate1D's all-fit shortcut or its φ
	// of a zero variance goes wrong.
	for trial := 0; trial < 20; trial++ {
		// CPU-dominated demands under a memory cap of a few VMs: the
		// round's CPU peaks all fit while some memory peaks do not.
		vms := genVMs(r, 20+int(r.next()*40), 12, 80, 40)
		check(fmt.Sprintf("tight-mem trial %d", trial), vms, 800+r.next()*800, 90+r.next()*60)
	}
	for trial := 0; trial < 20; trial++ {
		// Constant patterns that top the FFD order: they seed servers
		// whose complementary pattern has Σdx² == 0, so every φ is 0.
		vms := genVMs(r, 20+int(r.next()*40), 12, 80, 40)
		for i := range vms {
			if i%11 == 3 {
				for s := range vms[i].CPU {
					vms[i].CPU[s] *= 4
				}
			}
		}
		check(fmt.Sprintf("const-seed trial %d", trial), vms, 300+r.next()*300, 800+r.next()*1200)
	}
	for trial := 0; trial < 20; trial++ {
		// A CPU cap of a few VMs: a round's largest candidate stops
		// fitting while smaller ones still fit.
		vms := genVMs(r, 20+int(r.next()*40), 12, 80, 40)
		check(fmt.Sprintf("tight-cpu trial %d", trial), vms, 150+r.next()*250, 800+r.next()*1200)
	}
}

func TestEPACTAllocateMatchesReference(t *testing.T) {
	spec := ServerSpec{Cores: 16, MemContainers: 16, FMax: units.GHz(3.1), FMin: units.GHz(0.1)}
	e := &EPACT{Model: power.NTCServer()}
	r := &epactRNG{s: 0xfeedface12345678}
	sawCase := map[int]int{}
	for trial := 0; trial < 30; trial++ {
		count := 20 + int(r.next()*80)
		// Alternate scales so both the CPU-dominated (case 1) and
		// memory-dominated (case 2) branches are exercised.
		cpuScale, memScale := 80.0, 30.0
		if trial%2 == 1 {
			cpuScale, memScale = 25.0, 95.0
		}
		vms := genVMs(r, count, 12, cpuScale, memScale)
		got, err := e.Allocate(vms, spec)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refAllocate(e, vms, spec)
		if err != nil {
			t.Fatal(err)
		}
		sawCase[got.EPACTCase]++
		assertAssignmentsBitEqual(t, fmt.Sprintf("trial %d", trial), got, want)
	}
	if sawCase[1] == 0 || sawCase[2] == 0 {
		t.Fatalf("property test did not exercise both EPACT cases: %v", sawCase)
	}
}

func TestL2Distance(t *testing.T) {
	d, err := refL2Distance([]float64{0, 3}, []float64{4, 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-5) > 1e-12 {
		t.Errorf("refL2Distance = %v, want 5", d)
	}
	if _, err := refL2Distance([]float64{1}, []float64{1, 2}); err != mathx.ErrLengthMismatch {
		t.Errorf("err = %v, want ErrLengthMismatch", err)
	}
}

func TestComplement(t *testing.T) {
	got := refComplement([]float64{1, 4, 2})
	want := []float64{3, 0, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("refComplement[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if c := refComplement(nil); c != nil {
		t.Errorf("refComplement(nil) = %v, want nil", c)
	}
}

func TestComplementProperty(t *testing.T) {
	// Complement + original is constant (the max) everywhere.
	prop := func(seed int64) bool {
		r := &epactRNG{s: uint64(seed)*2862933555777941757 + 3037000493 | 1}
		xs := make([]float64, 12)
		for i := range xs {
			xs[i] = 100 * r.next()
		}
		c := refComplement(xs)
		m := mathx.Max(xs)
		for i := range xs {
			if math.Abs(xs[i]+c[i]-m) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// PeakMem returns the maximum memory sample.
func (v *VMDemand) PeakMem() float64 { return mathx.Max(v.Mem) }
