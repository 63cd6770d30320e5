package alloc

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/power"
	"repro/internal/units"
)

// EPACT is the paper's Energy Proportionality-Aware dynamiC
// allocaTion method (Section V-B). Per slot it:
//
//  1. sizes the server pool from the CPU and the memory perspective
//     independently (Eq. 1),
//  2. if CPU dominates (N̂cpu > N̂mem), exhaustively searches the
//     server count between the two bounds for the slot frequency
//     F_opt^T with the lowest worst-case data-center power, then runs
//     the 1-D correlation-aware first-fit-decreasing of Algorithm 1,
//  3. otherwise (memory dominates) derives F_opt from the memory
//     server count and runs the 2-D allocation of Algorithm 2, ranking
//     servers by the Eq. 2 merit (Pearson-correlation shape affinity
//     over Euclidean distance to the remaining capacity, weighted by
//     the CPU and memory caps).
//
// The power model is injected so the method adapts to the server's
// actual energy proportionality — the mechanism behind Fig. 7's
// static-power study.
//
// # Implementation note: cached statistics
//
// Both algorithms repeatedly evaluate Pearson correlations and
// capacity fits between one evolving server pattern and every
// still-unallocated VM — the dominant cost of a simulated week. The
// implementations below cache the per-VM halves of those formulas
// (mean-centered patterns, Σdy², peaks) once per Allocate call and the
// per-server halves once per placement round, instead of recomputing
// both halves per (server, VM) pair. Every cached value is produced by
// the exact fold the mathx helpers use (same operations in the same
// order), and capacity pre-screens only bypass ServerPlan.fits when
// peak/min bounds make the outcome certain under IEEE rounding
// monotonicity. Algorithm 1 goes one step further: a round whose
// largest candidate peaks (CPU and memory) certainly fit skips the
// per-candidate screen, since every other candidate then certainly
// fits too. Selections, and therefore assignments, are bit-identical
// to the straightforward implementation (see
// TestAllocate1DMatchesReference / TestEPACTAllocateMatchesReference).
type EPACT struct {
	// Model is the server power model used by the Eq. 1 / case-1
	// frequency search. Any power.Model works; the FDSOI ServerModel
	// is the paper's default.
	Model power.Model

	// Model-derived caches, built lazily on first Allocate. They hold
	// pure functions of the (immutable) model — the most
	// energy-proportional frequency and the worst-case CPU-bound power
	// per DVFS level — which the per-slot paths would otherwise
	// re-derive with full power-model evaluations. initErr rejects a
	// model without a DVFS grid.
	initOnce   sync.Once
	initErr    error
	fOpt       units.Frequency
	grid       []units.Frequency
	gridPowerW []float64
}

// Name implements Policy.
func (e *EPACT) Name() string { return "EPACT" }

func (e *EPACT) init() error {
	e.initOnce.Do(func() {
		e.grid = e.Model.DVFSGrid()
		if len(e.grid) == 0 {
			e.initErr = fmt.Errorf("alloc: EPACT: server model %s has no DVFS grid", e.Model.ModelName())
			return
		}
		e.fOpt = e.Model.OptimalFrequency()
		e.gridPowerW = make([]float64, len(e.grid))
		for k, f := range e.grid {
			e.gridPowerW[k] = e.Model.CPUBoundPower(f).W()
		}
	})
	return e.initErr
}

// fOptNTC returns the server's most energy-proportional frequency
// (≈1.9 GHz for the NTC server).
func (e *EPACT) fOptNTC() units.Frequency { return e.fOpt }

// serverCounts evaluates Eq. 1: the number of turned-on servers from
// the CPU perspective (at F_opt^NTC) and from the memory perspective
// (consolidating until the memory cap).
func (e *EPACT) serverCounts(sc *epactScratch, vms []VMDemand, spec ServerSpec) (nCPU, nMem int, peakCPU float64) {
	n := len(vms[0].CPU)
	// VM-outer accumulation over flat per-sample sums: each sample's
	// accumulator sees the same addends in the same VM order as the
	// original sample-outer loop, so the sums are bit-identical.
	sc.sumCPU = zeroed(sc.sumCPU, n)
	sc.sumMem = zeroed(sc.sumMem, n)
	cpu, mem := sc.sumCPU, sc.sumMem
	for i := range vms {
		vc, vm := vms[i].CPU, vms[i].Mem
		for s := 0; s < n; s++ {
			cpu[s] += vc[s]
			mem[s] += vm[s]
		}
	}
	peakMem := 0.0
	for s := 0; s < n; s++ {
		peakCPU = math.Max(peakCPU, cpu[s])
		peakMem = math.Max(peakMem, mem[s])
	}
	fOpt := e.fOptNTC()
	// Eq. 1 with the core-count in the denominator (units: core-points
	// at F_max scaled to F_opt capacity per server).
	nCPU = int(math.Ceil(peakCPU * spec.FMax.GHz() / (fOpt.GHz() * spec.CPUPoints())))
	nMem = int(math.Ceil(peakMem / spec.MemPoints()))
	if nCPU < 1 {
		nCPU = 1
	}
	if nMem < 1 {
		nMem = 1
	}
	return nCPU, nMem, peakCPU
}

// slotFrequency finds, for a candidate count of turned-on servers,
// the lowest frequency level that carries the predicted peak.
func (e *EPACT) slotFrequency(peakCPU float64, servers int, spec ServerSpec) units.Frequency {
	needGHz := peakCPU * spec.FMax.GHz() / (float64(servers) * spec.CPUPoints())
	return e.Model.ClampFrequency(units.GHz(needGHz))
}

// Allocate implements Policy.
func (e *EPACT) Allocate(vms []VMDemand, spec ServerSpec) (*Assignment, error) {
	return Fresh(e, vms, spec)
}

// AllocateInto implements Filler.
func (e *EPACT) AllocateInto(dst *Assignment, vms []VMDemand, spec ServerSpec) error {
	if err := checkInput(vms, spec); err != nil {
		return err
	}
	if err := e.init(); err != nil {
		return err
	}
	sc := epactPool.Get().(*epactScratch)
	defer epactPool.Put(sc)
	nCPU, nMem, peakCPU := e.serverCounts(sc, vms, spec)

	if nCPU > nMem {
		return e.allocateCase1(sc, dst, vms, spec, nCPU, nMem, peakCPU)
	}
	return e.allocateCase2(sc, dst, vms, spec, nMem, peakCPU)
}

// allocateCase1 handles the CPU-dominated case: exhaustive search of
// the turned-on server count in [nMem, nCPU] for the minimum
// worst-case power, then Algorithm 1.
func (e *EPACT) allocateCase1(sc *epactScratch, dst *Assignment, vms []VMDemand, spec ServerSpec, nCPU, nMem int, peakCPU float64) error {
	bestN, bestF, bestP := 0, units.Frequency(0), math.Inf(1)
	for n := nMem; n <= nCPU; n++ {
		// Skip counts that cannot carry the predicted peak even at
		// F_max.
		needGHz := peakCPU * spec.FMax.GHz() / (float64(n) * spec.CPUPoints())
		if needGHz > spec.FMax.GHz()+1e-9 {
			continue
		}
		// Worst-case data-center power: n servers, CPU bound at the
		// slot frequency. The level index resolves the same frequency
		// ClampFrequency snaps to (the grid/LevelIndex contract) and
		// its cached CPU-bound power.
		k := e.Model.LevelIndex(units.GHz(needGHz), len(e.grid))
		f, p := e.grid[k], float64(n)*e.gridPowerW[k]
		if p < bestP {
			bestN, bestF, bestP = n, f, p
		}
	}
	if bestN == 0 {
		return fmt.Errorf("alloc: EPACT case-1 search found no feasible server count (nCPU=%d, nMem=%d)", nCPU, nMem)
	}
	capCPU := spec.CPUPoints() * bestF.GHz() / spec.FMax.GHz()
	capMem := spec.MemPoints()

	allocate1D(sc, dst, vms, capCPU, capMem)
	dst.Policy = e.Name()
	dst.CPUCapPoints = capCPU
	dst.MemCapPoints = capMem
	dst.PlannedFreq = bestF
	dst.EPACTCase = 1
	return nil
}

// vmStats caches, for every VM, the statistics the inner loops of
// Algorithms 1 and 2 derive from its (immutable) patterns: peaks and
// minima for capacity screening, and the mean-centered patterns with
// their Σdy² used by the Pearson terms. Each value is computed by the
// exact fold mathx.Max / mathx.Mean / the Pearson dy-accumulation
// perform, so substituting them is bit-neutral.
type vmStats struct {
	n                                int
	peakCPU, minCPU, peakMem, minMem []float64
	syyCPU, syyMem                   []float64
	ycCPU, ycMem                     [][]float64 // mean-centered patterns
	sortKey                          []float64   // PeakCPU (+ PeakMem for case 2)
	backing                          []float64   // the centered patterns' storage
}

// fill computes the statistics of vms, reusing st's buffers.
func (st *vmStats) fill(vms []VMDemand) {
	v := len(vms)
	n := len(vms[0].CPU)
	st.n = n
	st.peakCPU = resize(st.peakCPU, v)
	st.minCPU = resize(st.minCPU, v)
	st.peakMem = resize(st.peakMem, v)
	st.minMem = resize(st.minMem, v)
	st.syyCPU = resize(st.syyCPU, v)
	st.syyMem = resize(st.syyMem, v)
	st.ycCPU = resize(st.ycCPU, v)
	st.ycMem = resize(st.ycMem, v)
	st.sortKey = resize(st.sortKey, v)
	st.backing = resize(st.backing, 2*v*n)
	backing := st.backing
	center := func(series []float64, yc []float64) (peak, min, syy float64) {
		peak, min = series[0], series[0]
		sum := 0.0
		for _, x := range series {
			if x > peak {
				peak = x
			}
			if x < min {
				min = x
			}
			sum += x
		}
		mean := sum / float64(len(series))
		for j, x := range series {
			d := x - mean
			yc[j] = d
			syy += d * d
		}
		return peak, min, syy
	}
	for i := range vms {
		st.ycCPU[i] = backing[:n:n]
		backing = backing[n:]
		st.peakCPU[i], st.minCPU[i], st.syyCPU[i] = center(vms[i].CPU, st.ycCPU[i])
		st.ycMem[i] = backing[:n:n]
		backing = backing[n:]
		st.peakMem[i], st.minMem[i], st.syyMem[i] = center(vms[i].Mem, st.ycMem[i])
	}
}

// screenFits classifies a candidate placement using peak/min bounds:
// +1 certainly fits, -1 certainly does not, 0 unknown (caller must run
// the full ServerPlan.fits scan). The bounds are sound because IEEE
// rounding is monotone: srvPeak+vmPeak dominates every per-sample sum
// and srvPeak+vmMin is dominated by the sum at the server's peak
// sample, in real arithmetic and therefore after rounding too.
func screenFits(srvPeakCPU, srvPeakMem float64, st *vmStats, idx int, capCPU, capMem float64) int {
	if srvPeakCPU+st.peakCPU[idx] <= capCPU+1e-9 && srvPeakMem+st.peakMem[idx] <= capMem+1e-9 {
		return 1
	}
	if srvPeakCPU+st.minCPU[idx] > capCPU+1e-9 || srvPeakMem+st.minMem[idx] > capMem+1e-9 {
		return -1
	}
	return 0
}

// epactScratch is the reusable working set of one EPACT call: the Eq.
// 1 sample sums, the allocate1D arrays and Algorithm 2's statistics
// and server states. The sweep layer runs thousands of slot
// allocations back to back; pooling keeps them from churning the GC.
// Every slice is fully rewritten before it is read, so reuse cannot
// leak state between calls.
type epactScratch struct {
	sumCPU, sumMem []float64

	peakCPU, minCPU, peakMem, minMem []float64
	// scr packs each FFD-order candidate's screen bounds
	// [minCPU, minMem, peakCPU, peakMem] into one stride-4 record so
	// the per-round screen touches one cache line per candidate
	// instead of four parallel arrays.
	scr                    []float64
	sSyy, ycAll, dx        []float64
	order, pending, active []int

	stats  vmStats
	states []srvState
}

var epactPool = sync.Pool{New: func() any { return new(epactScratch) }}

func (s *epactScratch) ensure(nv, n int) {
	if cap(s.peakCPU) < nv {
		s.peakCPU = make([]float64, nv)
		s.minCPU = make([]float64, nv)
		s.peakMem = make([]float64, nv)
		s.minMem = make([]float64, nv)
		s.scr = make([]float64, 4*nv)
		s.sSyy = make([]float64, nv)
		s.order = make([]int, nv)
		s.pending = make([]int, nv)
		s.active = make([]int, nv)
	}
	s.peakCPU = s.peakCPU[:nv]
	s.minCPU = s.minCPU[:nv]
	s.peakMem = s.peakMem[:nv]
	s.minMem = s.minMem[:nv]
	s.scr = s.scr[:4*nv]
	s.sSyy = s.sSyy[:nv]
	s.order = s.order[:nv]
	s.pending = s.pending[:nv]
	s.active = s.active[:nv]
	if cap(s.ycAll) < nv*n {
		s.ycAll = make([]float64, nv*n)
	}
	s.ycAll = s.ycAll[:nv*n]
	if cap(s.dx) < n {
		s.dx = make([]float64, n)
	}
	s.dx = s.dx[:n]
}

// seriesBounds returns the maximum and minimum of a series with the
// mathx.Max fold (first element seed, index-order scan).
func seriesBounds(series []float64) (peak, min float64) {
	peak, min = series[0], series[0]
	for _, x := range series[1:] {
		if x > peak {
			peak = x
		}
		if x < min {
			min = x
		}
	}
	return peak, min
}

// allocate1D is Algorithm 1: correlation-aware first-fit-decreasing on
// the CPU dimension. Servers open one at a time; an empty server takes
// the largest unallocated VM; a non-empty server repeatedly takes the
// unallocated VM whose CPU pattern best matches the server's
// complementary pattern (max Pearson φ) among those that keep the
// aggregated peak under the cap. When none fits, the next server
// opens.
//
// The working set is laid out in FFD order (struct-of-arrays) so the
// candidate scan walks contiguous memory; the visiting order is
// exactly the one a sorted pending list yields. A round screens the
// server's candidates by capacity, unless one bound shows they all
// fit, then folds the Pearson numerators of the fitting ones four at a
// time and keeps the first maximum φ.
//
// Precondition: every demand sample is finite and non-negative, as
// checkInput guarantees. The dropping of unfit candidates and the
// all-fit bound rely on it.
//
// It resets dst and fills its servers and VMServer; the caller sets
// the remaining fields.
func allocate1D(scratch *epactScratch, dst *Assignment, vms []VMDemand, capCPU, capMem float64) {
	nv := len(vms)
	n := len(vms[0].CPU)
	scratch.ensure(nv, n)

	// Pass 1: per-VM peaks and minima (sort key and screen bounds).
	peakCPU := scratch.peakCPU
	minCPU := scratch.minCPU
	peakMem := scratch.peakMem
	minMem := scratch.minMem
	for i := range vms {
		peakCPU[i], minCPU[i] = seriesBounds(vms[i].CPU)
		peakMem[i], minMem[i] = seriesBounds(vms[i].Mem)
	}

	// First-Fit-Decreasing order by predicted CPU peak.
	order := scratch.order
	for i := range order {
		order[i] = i
	}
	sortDesc(order, peakCPU)

	// Pass 2: gather the screen bounds into FFD order and center the
	// CPU patterns (mathx.Pearson's dy fold: peak/mean/Σdy² computed by
	// the exact same folds) into one flat row-per-candidate array.
	scr := scratch.scr
	sSyy := scratch.sSyy
	ycAll := scratch.ycAll
	for pi, idx := range order {
		rec := scr[4*pi : 4*pi+4]
		rec[0], rec[1] = minCPU[idx], minMem[idx]
		rec[2], rec[3] = peakCPU[idx], peakMem[idx]
		cpu := vms[idx].CPU
		sum := 0.0
		for _, x := range cpu {
			sum += x
		}
		mean := sum / float64(n)
		yc := ycAll[pi*n : pi*n+n]
		syy := 0.0
		for j, x := range cpu {
			d := x - mean
			yc[j] = d
			syy += d * d
		}
		sSyy[pi] = syy
	}

	dst.Reset("", nv)
	vmServer := dst.VMServer

	// pending holds the still-unallocated FFD positions; removing
	// placed entries keeps each round's scan short and in FFD order
	// (exactly the order an assigned-flag skip would visit). It stays
	// sorted ascending, so winners are removed by binary search.
	pending := scratch.pending
	for i := range pending {
		pending[i] = i
	}

	// active is the per-server working subset of pending. Demands are
	// non-negative, so a server's aggregate pattern only grows as VMs
	// are added: a candidate that does not fit stays unfit for the rest
	// of this server's fill and leaves active for good. After a round's
	// screen, active is exactly the fitting set. The seed branch starts
	// each server from a fresh copy of pending.
	active := scratch.active[:0]
	// maxMemPeak bounds the memory peaks in active: their max when the
	// seed branch rebuilt it. Candidates only leave active afterwards,
	// so it stays a bound for the whole server.
	var maxMemPeak float64

	// Per-round server-side Pearson state: the complementary pattern's
	// centered values and Σdx², recomputed whenever cur changes.
	dx := scratch.dx
	var sxx, srvPeakCPU, srvPeakMem float64
	updateRound := func(cur *ServerPlan) {
		// Complementary pattern: m = Max(cur.CPU); pattCom[i] = m - cur.CPU[i].
		m := cur.CPU[0]
		for _, v := range cur.CPU[1:] {
			if v > m {
				m = v
			}
		}
		srvPeakCPU = m
		// mathx.Mean over the complement, summed in index order.
		sum := 0.0
		for _, v := range cur.CPU {
			sum += m - v
		}
		mx := sum / float64(n)
		sxx = 0
		for i, v := range cur.CPU {
			d := (m - v) - mx
			dx[i] = d
			sxx += d * d
		}
		pm := cur.Mem[0]
		for _, v := range cur.Mem[1:] {
			if v > pm {
				pm = v
			}
		}
		srvPeakMem = pm
	}

	cur := dst.AddServer(n)
	boundCPU, boundMem := capCPU+1e-9, capMem+1e-9
	for len(pending) > 0 {
		if len(cur.VMs) == 0 {
			// Lines 4-6: first (largest) unallocated VM seeds the server.
			sp := pending[0]
			pending = pending[1:]
			idx := order[sp]
			cur.add(idx, &vms[idx])
			vmServer[idx] = len(dst.Servers) - 1
			updateRound(cur)
			active = append(active[:0], pending...)
			maxMemPeak = 0
			for _, sp := range active {
				if p := scr[4*sp+3]; p > maxMemPeak {
					maxMemPeak = p
				}
			}
			continue
		}
		// Lines 8-12: complementary pattern and best-correlated fit.
		//
		// Screen: drop the candidates that do not fit. active[0] has
		// the round's largest CPU peak (FFD order) and maxMemPeak bounds
		// the memory peaks, so when both pass screenFits' certain-fit
		// test every candidate passes it too (IEEE rounding is
		// monotone) and the screen is skipped. Otherwise each candidate
		// is classified as screenFits does, with the certain-no-fit test
		// first; the two certainty conditions are mutually exclusive
		// (min ≤ peak), so the classification is unchanged.
		if len(active) > 0 && !(srvPeakCPU+scr[4*active[0]+2] <= boundCPU && srvPeakMem+maxMemPeak <= boundMem) {
			w := 0
			for _, sp := range active {
				rec := scr[4*sp : 4*sp+4]
				if srvPeakCPU+rec[0] > boundCPU || srvPeakMem+rec[1] > boundMem {
					continue // certainly does not fit
				}
				if !(srvPeakCPU+rec[2] <= boundCPU && srvPeakMem+rec[3] <= boundMem) &&
					!cur.fits(&vms[order[sp]], capCPU, capMem) {
					continue
				}
				active[w] = sp
				w++
			}
			active = active[:w]
		}

		// Dot + selection pass over the fitting set, in FFD order with
		// the reference comparisons. Pearson numerators sxy =
		// Σ dx[i]·yc[i] are computed four candidates at a time: each
		// accumulator still receives its own addends in index order —
		// interleaving only overlaps the four independent dependency
		// chains — so every sxy is bit-identical to a lone mathx.Pearson
		// fold. Every candidate's φ is mathx.Pearson's value, 0 for a
		// zero variance, computed without a sign test in front: such a
		// test mispredicts on about half the candidates.
		bestPos, bestPhi := -1, math.Inf(-1)
		consider := func(at int, sxy, syy float64) {
			phi := sxy / math.Sqrt(sxx*syy)
			if sxx == 0 || syy == 0 {
				phi = 0
			}
			if phi > bestPhi {
				bestPos, bestPhi = at, phi
			}
		}
		na := len(active)
		k := 0
		for ; k+4 <= na; k += 4 {
			sp0, sp1, sp2, sp3 := active[k], active[k+1], active[k+2], active[k+3]
			var s0, s1, s2, s3 float64
			if sxx != 0 {
				y0 := ycAll[sp0*n:][:len(dx)]
				y1 := ycAll[sp1*n:][:len(dx)]
				y2 := ycAll[sp2*n:][:len(dx)]
				y3 := ycAll[sp3*n:][:len(dx)]
				for i, d := range dx {
					s0 += d * y0[i]
					s1 += d * y1[i]
					s2 += d * y2[i]
					s3 += d * y3[i]
				}
			}
			consider(k, s0, sSyy[sp0])
			consider(k+1, s1, sSyy[sp1])
			consider(k+2, s2, sSyy[sp2])
			consider(k+3, s3, sSyy[sp3])
		}
		for ; k < na; k++ {
			sp := active[k]
			s := 0.0
			if sxx != 0 {
				y := ycAll[sp*n:][:len(dx)]
				for i, d := range dx {
					s += d * y[i]
				}
			}
			consider(k, s, sSyy[sp])
		}
		if bestPos < 0 {
			// Lines 13-14: nothing fits; turn on another server. The
			// seed branch rebuilds active on the next iteration.
			cur = dst.AddServer(n)
			continue
		}
		sp := active[bestPos]
		active = append(active[:bestPos], active[bestPos+1:]...)
		pi := sort.SearchInts(pending, sp)
		pending = append(pending[:pi], pending[pi+1:]...)
		idx := order[sp]
		cur.add(idx, &vms[idx])
		vmServer[idx] = len(dst.Servers) - 1
		updateRound(cur)
	}
}

// srvState caches the server-side halves of the Eq. 2 merit terms for
// one server of Algorithm 2: the centered complementary patterns with
// their Σdx² (Pearson numerator/denominator halves) and the remaining
// capacity patterns (L2 distance operand), refreshed whenever the
// server's load changes.
type srvState struct {
	dxCPU, dxMem   []float64
	sxxCPU, sxxMem float64
	remCPU, remMem []float64
	peakCPU        float64
	peakMem        float64
	dirty          bool
}

// reset readies s for a server with n-sample patterns, reusing its
// buffers; the first update fills them.
func (s *srvState) reset(n int) {
	s.dxCPU = resize(s.dxCPU, n)
	s.dxMem = resize(s.dxMem, n)
	s.remCPU = resize(s.remCPU, n)
	s.remMem = resize(s.remMem, n)
	s.dirty = true
}

func (s *srvState) update(srv *ServerPlan, capCPU, capMem float64, n int) {
	s.dirty = false
	if len(srv.VMs) == 0 {
		// Empty server: complement of a zero pattern is zero, so all
		// centered values and Σdx² are zero and remaining capacity is
		// the full cap (cap - 0 == cap exactly).
		for i := 0; i < n; i++ {
			s.dxCPU[i], s.dxMem[i] = 0, 0
			s.remCPU[i], s.remMem[i] = capCPU, capMem
		}
		s.sxxCPU, s.sxxMem = 0, 0
		s.peakCPU, s.peakMem = 0, 0
		return
	}
	side := func(series []float64, dx, rem []float64, capacity float64) (sxx, peak float64) {
		m := series[0]
		for _, v := range series[1:] {
			if v > m {
				m = v
			}
		}
		sum := 0.0
		for _, v := range series {
			sum += m - v
		}
		mx := sum / float64(n)
		for i, v := range series {
			d := (m - v) - mx
			dx[i] = d
			sxx += d * d
			rem[i] = capacity - v
		}
		return sxx, m
	}
	s.sxxCPU, s.peakCPU = side(srv.CPU, s.dxCPU, s.remCPU, capCPU)
	s.sxxMem, s.peakMem = side(srv.Mem, s.dxMem, s.remMem, capMem)
}

// allocateCase2 handles the memory-dominated case via Algorithm 2.
func (e *EPACT) allocateCase2(scratch *epactScratch, dst *Assignment, vms []VMDemand, spec ServerSpec, nMem int, peakCPU float64) error {
	// F_opt from the memory server count (Section V-B case 2).
	fOpt := e.slotFrequency(peakCPU, nMem, spec)
	capCPU := spec.CPUPoints() * fOpt.GHz() / spec.FMax.GHz()
	capMem := spec.MemPoints()

	st := &scratch.stats
	st.fill(vms)
	for i := range vms {
		st.sortKey[i] = st.peakCPU[i] + st.peakMem[i]
	}
	n := st.n

	dst.Reset(e.Name(), len(vms))
	for range nMem {
		dst.AddServer(n)
	}

	// Iterate VMs largest-first for packing stability (the paper's
	// loop is order-agnostic).
	scratch.order = resize(scratch.order, len(vms))
	order := scratch.order
	for i := range order {
		order[i] = i
	}
	sortDesc(order, st.sortKey)

	wCPU := capCPU / (capCPU + capMem)
	wMem := capMem / (capCPU + capMem)

	scratch.states = resize(scratch.states, nMem)
	for i := range scratch.states {
		scratch.states[i].reset(n)
	}

	for _, idx := range order {
		vm := &vms[idx]
		bestServer, bestMerit := -1, math.Inf(-1)
		for j, srv := range dst.Servers {
			ss := &scratch.states[j]
			if ss.dirty {
				ss.update(srv, capCPU, capMem, n)
			}
			switch screenFits(ss.peakCPU, ss.peakMem, st, idx, capCPU, capMem) {
			case -1:
				continue
			case 0:
				if !srv.fits(vm, capCPU, capMem) {
					continue
				}
			}
			merit := eq2MeritCached(ss, st, idx, vm, wCPU, wMem)
			if merit > bestMerit {
				bestServer, bestMerit = j, merit
			}
		}
		if bestServer < 0 {
			// The fixed pool cannot host the VM (prediction overshoot):
			// turn on one more server, as a real system must.
			dst.AddServer(n)
			k := len(scratch.states)
			scratch.states = slices.Grow(scratch.states, 1)[:k+1]
			scratch.states[k].reset(n)
			bestServer = k
		}
		dst.Servers[bestServer].add(idx, vm)
		scratch.states[bestServer].dirty = true
		dst.VMServer[idx] = bestServer
	}

	dst.CPUCapPoints, dst.MemCapPoints = capCPU, capMem
	dst.PlannedFreq = fOpt
	dst.EPACTCase = 2
	return nil
}

// eq2MeritCached evaluates the Eq. 2 merit of placing VM idx on the
// server whose cached state is ss: shape affinity (Pearson of the VM
// pattern with the server's complementary pattern) divided by the
// Euclidean distance between the VM pattern and the server's remaining
// capacity, summed over the CPU and memory dimensions with cap-derived
// weights. A vanishing distance means a perfect fill and is floored to
// keep the merit finite. The arithmetic mirrors refEq2Merit in
// epact_ref_test.go (Pearson and Euclidean distance on materialised
// slices) bit for bit.
func eq2MeritCached(ss *srvState, st *vmStats, idx int, vm *VMDemand, wCPU, wMem float64) float64 {
	const minDist = 1e-6

	side := func(dx []float64, sxx, syy float64, yc, series, rem []float64) (phi, dist float64) {
		if sxx != 0 && syy != 0 {
			sxy := 0.0
			for i, d := range dx {
				sxy += d * yc[i]
			}
			phi = sxy / math.Sqrt(sxx*syy)
		}
		ssq := 0.0
		for i, v := range series {
			d := v - rem[i]
			ssq += d * d
		}
		dist = math.Sqrt(ssq)
		if dist < minDist {
			dist = minDist
		}
		return phi, dist
	}
	phiCPU, distCPU := side(ss.dxCPU, ss.sxxCPU, st.syyCPU[idx], st.ycCPU[idx], vm.CPU, ss.remCPU)
	phiMem, distMem := side(ss.dxMem, ss.sxxMem, st.syyMem[idx], st.ycMem[idx], vm.Mem, ss.remMem)
	return wCPU*phiCPU/distCPU + wMem*phiMem/distMem
}
