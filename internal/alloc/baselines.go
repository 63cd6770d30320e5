package alloc

import (
	"cmp"
	"slices"
	"sync"
)

// baseScratch is the per-call working set of the peak-ordered
// baselines: the first-fit-decreasing order and peaks, Verma's
// binarised patterns and per-server binary sums, and load balancing's
// per-server peaks. It is pooled like epactScratch; every slice is
// rewritten before it is read, so reuse cannot leak state between
// calls.
type baseScratch struct {
	order             []int
	peak, srvPeak     []float64
	binary, srvBinary []float64 // flat, one n-sample row per VM / server
}

var basePool = sync.Pool{New: func() any { return new(baseScratch) }}

// byPeakCPU returns the VM indices ordered by descending peak CPU,
// equal peaks in index order, together with each VM's peak (indexed by
// VM). Each peak is computed once rather than on every comparison.
func (sc *baseScratch) byPeakCPU(vms []VMDemand) (order []int, peak []float64) {
	sc.order = resize(sc.order, len(vms))
	sc.peak = resize(sc.peak, len(vms))
	order, peak = sc.order, sc.peak
	for i := range vms {
		order[i] = i
		peak[i] = vms[i].PeakCPU()
	}
	sortDesc(order, peak)
	return order, peak
}

// sortDesc sorts the VM indices in order by descending key[vm], equal
// keys in index order. checkInput admits only finite demands, on
// whose keys this is a total order, so the result is the one
// permutation a stable sort by descending key yields, without the
// stable sort's merge overhead.
func sortDesc(order []int, key []float64) {
	slices.SortFunc(order, func(a, b int) int {
		switch {
		case key[a] > key[b]:
			return -1
		case key[b] > key[a]:
			return 1
		}
		return cmp.Compare(a, b)
	})
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
	return Fresh(l, vms, spec)
}

// AllocateInto implements Filler. Each server's peak CPU is kept
// beside it and recomputed only for the server that takes a VM.
func (l *LoadBalance) AllocateInto(dst *Assignment, vms []VMDemand, spec ServerSpec) error {
	if err := checkInput(vms, spec); err != nil {
		return err
	}
	sc := basePool.Get().(*baseScratch)
	defer basePool.Put(sc)
	order, peak := sc.byPeakCPU(vms)
	n := l.Servers
	if n <= 0 {
		var total float64
		for _, p := range peak {
			total += p
		}
		n = int(total/(spec.CPUPoints()*0.5)) + 1
	}
	dst.Reset(l.Name(), len(vms))
	for range n {
		dst.AddServer(len(vms[0].CPU))
	}
	sc.srvPeak = resize(sc.srvPeak, n)
	srvPeak := sc.srvPeak
	clear(srvPeak)
	for _, idx := range order {
		// Least-loaded by current peak CPU.
		best, bestPeak := 0, srvPeak[0]
		for j := 1; j < n; j++ {
			if p := srvPeak[j]; p < bestPeak {
				best, bestPeak = j, p
			}
		}
		srv := dst.Servers[best]
		srv.add(idx, &vms[idx])
		srvPeak[best] = srv.PeakCPU()
		dst.VMServer[idx] = best
	}
	dst.CPUCapPoints, dst.MemCapPoints = spec.CPUPoints(), spec.MemPoints()
	dst.PlannedFreq = spec.FMax
	return nil
}
