package alloc

import (
	"sort"
)

// byPeakCPU returns the VM indices ordered by descending peak CPU,
// equal peaks in index order, together with each VM's peak (indexed by
// VM). Each peak is computed once rather than on every comparison.
func byPeakCPU(vms []VMDemand) (order []int, peak []float64) {
	order = make([]int, len(vms))
	peak = make([]float64, len(vms))
	for i := range vms {
		order[i] = i
		peak[i] = vms[i].PeakCPU()
	}
	sort.SliceStable(order, func(a, b int) bool { return peak[order[a]] > peak[order[b]] })
	return order, peak
}

// FFD is plain first-fit-decreasing consolidation without correlation
// awareness: the classical baseline ([7], [12]) that only checks that
// the total size of the VMs' load fits the server capacity.
type FFD struct {
	// CapFrac is the CPU cap fraction (1.0 = full capacity at F_max).
	CapFrac float64
}

// Name implements Policy.
func (f *FFD) Name() string { return "FFD" }

// Allocate implements Policy.
func (f *FFD) Allocate(vms []VMDemand, spec ServerSpec) (*Assignment, error) {
	if err := checkInput(vms, spec); err != nil {
		return nil, err
	}
	frac := f.CapFrac
	if frac <= 0 {
		frac = 1
	}
	capCPU := spec.CPUPoints() * frac
	capMem := spec.MemPoints()
	order, _ := byPeakCPU(vms)

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
		Policy:       f.Name(),
		Servers:      servers,
		VMServer:     vmServer,
		CPUCapPoints: capCPU,
		MemCapPoints: capMem,
		PlannedFreq:  spec.FMax,
	}, nil
}

// LoadBalance spreads VMs across a fixed pool of servers, always
// placing the next VM on the least-loaded server — the anti-
// consolidation extreme the paper mentions ("neither VM consolidation
// nor load balancing are the best options").
type LoadBalance struct {
	// Servers is the fixed pool size; 0 sizes the pool so mean CPU
	// load is 50% of capacity.
	Servers int
}

// Name implements Policy.
func (l *LoadBalance) Name() string { return "load-balance" }

// Allocate implements Policy.
func (l *LoadBalance) Allocate(vms []VMDemand, spec ServerSpec) (*Assignment, error) {
	if err := checkInput(vms, spec); err != nil {
		return nil, err
	}
	order, peak := byPeakCPU(vms)
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
