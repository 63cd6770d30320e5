package topology

import (
	"fmt"
	"slices"

	"repro/internal/power"
	"repro/internal/trace"
)

// Assignment maps each DC (fleet order) to the trace VM indices it
// hosts, ascending. Every VM appears in exactly one DC — Dispatch
// partitions the population.
type Assignment [][]int

// Dispatch partitions a trace's VMs across the fleet's datacenters
// according to the fleet's dispatcher. It is a pure function of the
// (resolved) fleet and the trace: no randomness, deterministic
// tie-breaking, so fleet scenarios inherit the sweep engine's
// byte-determinism contract.
//
// historySamples bounds what load-aware dispatchers may observe: the
// first historySamples of each VM's series (the past a real operator
// has seen). <= 0, or more samples than the trace holds, means the
// whole trace. Load-blind dispatchers ignore it.
//
// Dispatch is DispatchAt at hour 0 — carbon-aware dispatchers price
// grid intensity at midnight; everything else ignores the hour.
func Dispatch(f Fleet, tr *trace.Trace, historySamples int) (Assignment, error) {
	return DispatchAt(f, tr, historySamples, 0)
}

// DispatchAt dispatches as of a given hour of day: the carbon-greedy
// dispatcher ranks DCs by their grid intensity AT that hour, which is
// what lets the epoch rebalancer follow the sun — each re-dispatch
// re-ranks against the boundary slot's hour. The load-blind and
// load-aware dispatchers ignore the hour entirely, so Dispatch and
// DispatchAt agree for them.
func DispatchAt(f Fleet, tr *trace.Trace, historySamples, hour int) (Assignment, error) {
	var d dispatcher
	return d.dispatch(f, tr, historySamples, hour)
}

// dispatcher holds what dispatch reuses from one call to the next: the
// per-DC lists it returns, which the next call refills in place, the
// dispatchers' scratch, and the DCs' server models when the caller
// has resolved them. The zero value resolves every model per call.
type dispatcher struct {
	out     Assignment
	order   []rankedDC
	loads   []vmLoad
	weights []float64
	hosted  []float64

	// models are the DCs' server models, fleet order; nil resolves
	// each dispatch's. The fleet stepper passes its own.
	models []serverModels
}

// dispatch is DispatchAt into d's buffers: the returned Assignment is
// valid until d's next dispatch.
func (d *dispatcher) dispatch(f Fleet, tr *trace.Trace, historySamples, hour int) (Assignment, error) {
	f = f.normalized()
	if cap(d.out) < len(f.DCs) {
		d.out = make(Assignment, len(f.DCs))
	}
	d.out = d.out[:len(f.DCs)]
	for i := range d.out {
		d.out[i] = d.out[i][:0]
	}
	switch f.Dispatcher {
	case "uniform":
		return d.uniform(f, tr)
	case "greedy-proportional":
		return d.greedyProportional(f, tr)
	case "follow-the-load":
		return d.followTheLoad(f, tr, historySamples)
	case "carbon-greedy":
		return d.carbonGreedy(f, tr, hour)
	default:
		return nil, fmt.Errorf("topology: unknown dispatcher %q", f.Dispatcher)
	}
}

// model returns DC i's server model.
func (d *dispatcher) model(i int, dc DCSpec) (*power.ServerModel, error) {
	if d.models != nil {
		return d.models[i].base, nil
	}
	m, _, err := dc.serverPlatform()
	return m, err
}

// errNoDispatchableDC is returned when every DC in the fleet is
// drained (explicit share 0). Validate rejects such fleets up front;
// the dispatchers re-check so a caller that skips validation gets an
// error instead of a lost VM population.
var errNoDispatchableDC = fmt.Errorf("topology: every DC has share 0 — no dispatchable datacenter")

// dispatchUniform interleaves VMs across DCs proportionally to their
// Share, using the D'Hondt highest-averages rule: VM i goes to the DC
// minimizing (hosted+1)/share, earliest DC on ties. The result tracks
// the share quotas at every prefix, so correlated VM groups (adjacent
// IDs in the synthetic traces) spread instead of landing in one DC.
// Drained DCs (share 0) receive nothing.
func (d *dispatcher) uniform(f Fleet, tr *trace.Trace) (Assignment, error) {
	out := d.out
	for v := range tr.VMs {
		best := -1
		bestQ := 0.0
		for i, dc := range f.DCs {
			if dc.Share <= 0 {
				continue
			}
			q := float64(len(out[i])+1) / dc.Share
			if best < 0 || q < bestQ {
				best, bestQ = i, q
			}
		}
		if best < 0 {
			return nil, errNoDispatchableDC
		}
		out[best] = append(out[best], v)
	}
	return out, nil
}

// dispatchGreedyProportional fills the most energy-proportional DC
// first: DCs are ranked by the power.ServerModel.IdlePeakScore of
// their server model (spec order on ties), and VMs in ID order fill each DC up to
// its VM capacity (servers × per-server VM slots, bounded by cores
// and 1 GB memory containers) before overflowing to the next. The
// last-ranked DC absorbs any remainder — an over-full fleet surfaces
// as pool-cap violations in the simulation, never as dropped VMs.
func (d *dispatcher) greedyProportional(f Fleet, tr *trace.Trace) (Assignment, error) {
	order := d.order[:0]
	for i, dc := range f.DCs {
		if dc.Share <= 0 {
			// Drained: never a fill target, whatever its ranking.
			continue
		}
		// The DC's effective static power shifts its idle/peak ratio,
		// so it belongs in the ranking; Run materialises the scenario
		// default into the resolved specs before dispatching.
		m, err := d.model(i, dc)
		if err != nil {
			return nil, err
		}
		// Rank greatest proportionality first: negate so fillRanked's
		// ascending order fills the most proportional DC first.
		order = append(order, rankedDC{idx: i, score: -m.IdlePeakScore(), cap: dcVMCapacity(dc, m)})
	}
	d.order = order
	return d.fillRanked(tr)
}

// rankedDC is one fill target of a greedy dispatcher: a DC index, its
// ranking score (ascending — lowest score fills first) and its VM
// capacity (0 = unbounded).
type rankedDC struct {
	idx   int
	score float64
	cap   int
}

// dcVMCapacity is the DC's VM capacity: servers × per-server VM slots
// (bounded by cores and 1 GB memory containers); 0 = unbounded.
func dcVMCapacity(dc DCSpec, m *power.ServerModel) int {
	slots := m.Cores
	if gb := int(m.DRAM.Capacity.GB()); gb < slots {
		slots = gb
	}
	if dc.Servers > 0 {
		return dc.Servers * slots
	}
	return 0
}

// fillRanked fills DCs in ascending score order (spec order on ties):
// VMs in ID order fill each DC to its capacity before overflowing to
// the next, and the last-ranked DC absorbs any remainder — an
// over-full fleet surfaces as pool-cap violations in the simulation,
// never as dropped VMs.
func (d *dispatcher) fillRanked(tr *trace.Trace) (Assignment, error) {
	order, out := d.order, d.out
	if len(order) == 0 {
		return nil, errNoDispatchableDC
	}
	slices.SortStableFunc(order, func(a, b rankedDC) int {
		switch {
		case a.score < b.score:
			return -1
		case b.score < a.score:
			return 1
		}
		return 0
	})

	pos := 0
	for v := range tr.VMs {
		// Advance past full DCs; the last one takes everything left.
		for pos < len(order)-1 && order[pos].cap > 0 && len(out[order[pos].idx]) >= order[pos].cap {
			pos++
		}
		out[order[pos].idx] = append(out[order[pos].idx], v)
	}
	return out, nil
}

// dispatchCarbonGreedy fills the cleanest DC first: DCs are ranked by
// effective carbon per unit of IT energy — PUE × grid intensity at
// the dispatch hour, gCO2eq per IT-kWh — ascending (spec order on
// ties), and VMs fill each DC to its capacity before overflowing, as
// in greedy-proportional. Under an epoch rebalance (`epoch:N@
// carbon-greedy`) each boundary re-ranks at its own hour of day, so
// load follows whichever grid is clean right now — follow-the-sun.
// Dispatch optimizes grams the way greedy-proportional optimizes
// joules; it never reads the workload, so it stays a pure function of
// the fleet spec and the hour.
func (d *dispatcher) carbonGreedy(f Fleet, tr *trace.Trace, hour int) (Assignment, error) {
	order := d.order[:0]
	for i, dc := range f.DCs {
		if dc.Share <= 0 {
			continue
		}
		m, err := d.model(i, dc)
		if err != nil {
			return nil, err
		}
		order = append(order, rankedDC{idx: i, score: dc.PUE * dc.GridIntensity.At(hour), cap: dcVMCapacity(dc, m)})
	}
	d.order = order
	return d.fillRanked(tr)
}

// dispatchFollowTheLoad balances observed load latency-aware: each
// DC's weight is share / latency (closer DCs attract more load), and
// VMs — heaviest observed mean CPU first, stable by ID — go greedily
// to the DC with the lowest weighted load after placement. Drained
// DCs (share 0, hence weight 0) receive nothing. Only the history
// window feeds the means (the load an operator has already seen);
// dispatch never peeks at the evaluation period. Per-DC lists are
// re-sorted ascending so downstream replay order stays canonical.
func (d *dispatcher) followTheLoad(f Fleet, tr *trace.Trace, historySamples int) (Assignment, error) {
	weights := resize(d.weights, len(f.DCs))
	for i, dc := range f.DCs {
		lat := dc.LatencyMs
		if lat < 1 {
			lat = 1
		}
		weights[i] = dc.Share / lat
	}

	loads := resize(d.loads, len(tr.VMs))
	for v, vm := range tr.VMs {
		window := vm.CPU
		if historySamples > 0 && historySamples < len(window) {
			window = window[:historySamples]
		}
		sum := 0.0
		for _, c := range window {
			sum += c
		}
		mean := 0.0
		if len(window) > 0 {
			mean = sum / float64(len(window))
		}
		loads[v] = vmLoad{idx: v, mean: mean}
	}
	slices.SortStableFunc(loads, func(a, b vmLoad) int {
		switch {
		case a.mean > b.mean:
			return -1
		case b.mean > a.mean:
			return 1
		}
		return 0
	})

	out := d.out
	hosted := resize(d.hosted, len(f.DCs))
	clear(hosted)
	d.weights, d.loads, d.hosted = weights, loads, hosted
	for _, vm := range loads {
		best := -1
		bestQ := 0.0
		for i := range f.DCs {
			if weights[i] <= 0 {
				continue
			}
			q := (hosted[i] + vm.mean) / weights[i]
			if best < 0 || q < bestQ {
				best, bestQ = i, q
			}
		}
		if best < 0 {
			return nil, errNoDispatchableDC
		}
		out[best] = append(out[best], vm.idx)
		hosted[best] += vm.mean
	}
	for i := range out {
		slices.Sort(out[i])
	}
	return out, nil
}

// vmLoad is one VM's observed mean CPU, follow-the-load's sort key.
type vmLoad struct {
	idx  int
	mean float64
}

// resize returns s with length n, reallocated only when it lacks the
// capacity; the contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
