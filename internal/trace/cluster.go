package trace

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/workload"
)

// Cluster-trace adapter: real data-center dumps (Azure VM traces,
// Google cluster data) ship as long reading tables — one row per
// (timestamp, VM, utilisation reading) — with provider-specific
// column names, reporting periods and units. ReadClusterCSV
// normalises such a table into the simulator's native shape. The
// rules, also documented in docs/TRACES.md:
//
//   - Columns are matched by (case-insensitive) header name; see
//     clusterColumns for the accepted aliases. Extra columns are
//     ignored. A memory column is optional.
//   - Timestamps are numeric, in seconds or microseconds (the Google
//     convention). Microseconds are detected when the largest value
//     reaches 1e11 (beyond any epoch-seconds clock) or when the
//     smallest gap between distinct timestamps reaches 1e6 (readings
//     at least a second apart in µs; a seconds dump would need
//     11-day reporting gaps to match). Only offsets from the
//     earliest timestamp matter, and the span is capped at one year
//     of ticks. NaN and infinite values are rejected.
//   - Readings are downsampled onto the 5-minute tick grid
//     (DefaultInterval): each reading lands in the tick containing its
//     timestamp, multiple readings per (VM, tick) are averaged, gaps
//     are forward-filled from the last observed tick, and ticks
//     before a VM's first reading are zero (the VM has not arrived,
//     matching the churn convention).
//   - Utilisation units are detected per column: a column whose
//     maximum is ≤ 1 is a fraction and is scaled to percent; values
//     are clamped into [0, 100] afterwards.
//   - A missing memory column reports the mid-mem class profile (25%)
//     from each VM's first reading onward — pre-arrival ticks stay
//     zero, like CPU — and classes every VM mid-mem; with a memory
//     column each VM is classed by its mean over its lifetime (from
//     arrival onward, so late arrivals are not biased low): < 16%
//     low-mem, < 34% mid-mem, else high-mem (midpoints of the
//     paper's 7/25/43% profiles).
//   - VMs are ordered by their source id — numerically when every id
//     is an integer, lexicographically otherwise — and renumbered
//     densely from 0, so the output is deterministic whatever the
//     row order of the dump.

// clusterColumns maps the accepted header aliases onto the adapter's
// logical columns.
var clusterColumns = map[string]string{
	"timestamp": "ts", "ts": "ts", "time": "ts", "start_time": "ts",
	"vm_id": "vm", "vmid": "vm", "machine_id": "vm", "instance_id": "vm", "task_id": "vm",
	"cpu": "cpu", "cpu_pct": "cpu", "avg_cpu": "cpu", "cpu_util": "cpu",
	"cpu_usage": "cpu", "avg cpu": "cpu", "maximum cpu": "cpu",
	"mem": "mem", "mem_pct": "mem", "avg_mem": "mem", "mem_util": "mem",
	"memory_usage": "mem", "avg mem": "mem",
}

// DefaultClusterMemPct is the memory level reported when the dump has
// no memory column: the paper's mid-mem class profile.
const DefaultClusterMemPct = 25.0

// microsecondThreshold flags microsecond clocks by magnitude: 1e11 s
// is year ~5138, so no seconds timestamp reaches it, while epoch- or
// long-span microsecond values do.
const microsecondThreshold = 1e11

// microsecondStep flags microsecond clocks by granularity: cluster
// dumps report at least once a second (1e6 µs), while a seconds dump
// would need ≥ 11-day gaps between distinct timestamps to match.
const microsecondStep = 1e6

// maxClusterTicks bounds the tick grid a dump may span (one year of
// 5-minute ticks; public cluster traces cover days to a month). Every
// VM gets a full-length series, so an absurd timestamp would otherwise
// ask for an absurd allocation.
const maxClusterTicks = 366 * SamplesPerDay

type clusterReading struct {
	tick     int
	cpu, mem float64
}

// ReadClusterCSV ingests a cluster reading table per the adapter
// rules above.
func ReadClusterCSV(r io.Reader) (*Trace, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1 // real dumps have ragged optional columns
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("trace: cluster: reading header: %w", err)
	}
	cols := map[string]int{}
	for i, name := range header {
		if logical, ok := clusterColumns[strings.ToLower(strings.TrimSpace(name))]; ok {
			if _, dup := cols[logical]; !dup {
				cols[logical] = i
			}
		}
	}
	for _, need := range []string{"ts", "vm", "cpu"} {
		if _, ok := cols[need]; !ok {
			return nil, fmt.Errorf("trace: cluster: no %s column in header %v (accepted aliases: %s)",
				need, header, strings.Join(aliasesFor(need), ", "))
		}
	}
	hasMem := false
	if _, ok := cols["mem"]; ok {
		hasMem = true
	}

	// Pass 1: parse rows into raw readings per source VM id.
	type rawReading struct {
		ts, cpu, mem float64
	}
	byVM := map[string][]rawReading{}
	var allTS []float64
	var maxCPU, maxMem float64
	minTS, maxTS := math.Inf(1), math.Inf(-1)
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			// csv.ParseError already names the offending line.
			return nil, fmt.Errorf("trace: cluster: %w", err)
		}
		line, _ := cr.FieldPos(0)
		get := func(logical string) (string, error) {
			i := cols[logical]
			if i >= len(rec) {
				return "", fmt.Errorf("trace: cluster: line %d: row has %d fields, %s column is %d",
					line, len(rec), logical, i+1)
			}
			return strings.TrimSpace(rec[i]), nil
		}
		tsField, err := get("ts")
		if err != nil {
			return nil, err
		}
		ts, err := parseFinite(tsField)
		if err != nil {
			return nil, fmt.Errorf("trace: cluster: line %d: bad timestamp %q: %w", line, tsField, err)
		}
		vmField, err := get("vm")
		if err != nil {
			return nil, err
		}
		if vmField == "" {
			return nil, fmt.Errorf("trace: cluster: line %d: empty vm id", line)
		}
		cpuField, err := get("cpu")
		if err != nil {
			return nil, err
		}
		cpu, err := parseFinite(cpuField)
		if err != nil {
			return nil, fmt.Errorf("trace: cluster: line %d: bad cpu %q: %w", line, cpuField, err)
		}
		if cpu < 0 {
			return nil, fmt.Errorf("trace: cluster: line %d: negative cpu %g", line, cpu)
		}
		mem := 0.0
		if hasMem {
			memField, err := get("mem")
			if err != nil {
				return nil, err
			}
			if mem, err = parseFinite(memField); err != nil {
				return nil, fmt.Errorf("trace: cluster: line %d: bad mem %q: %w", line, memField, err)
			}
			if mem < 0 {
				return nil, fmt.Errorf("trace: cluster: line %d: negative mem %g", line, mem)
			}
		}
		byVM[vmField] = append(byVM[vmField], rawReading{ts: ts, cpu: cpu, mem: mem})
		allTS = append(allTS, ts)
		maxTS = math.Max(maxTS, ts)
		minTS = math.Min(minTS, ts)
		if cpu > maxCPU {
			maxCPU = cpu
		}
		if mem > maxMem {
			maxMem = mem
		}
	}
	if len(byVM) == 0 {
		return nil, errors.New("trace: cluster: no readings")
	}

	// Unit normalisation decisions, made once per column over the
	// whole table so one VM's quiet week cannot flip the scale.
	// Microseconds are recognised by magnitude or by reporting
	// granularity (the smallest gap between distinct timestamps).
	sort.Float64s(allTS)
	minStep := 0.0
	for i := 1; i < len(allTS); i++ {
		if d := allTS[i] - allTS[i-1]; d > 0 && (minStep == 0 || d < minStep) {
			minStep = d
		}
	}
	tsScale := 1.0
	if maxTS >= microsecondThreshold || minStep >= microsecondStep {
		tsScale = 1e-6
	}
	cpuScale := 1.0
	if maxCPU <= 1 {
		cpuScale = 100
	}
	memScale := 1.0
	if hasMem && maxMem <= 1 {
		memScale = 100
	}

	tickSec := DefaultInterval.Seconds()
	span := (maxTS - minTS) * tsScale / tickSec
	if !(span < maxClusterTicks) {
		return nil, fmt.Errorf("trace: cluster: timestamps span %g s, more than the %d-tick (one-year) limit",
			(maxTS-minTS)*tsScale, maxClusterTicks)
	}
	ticks := int(span) + 1

	// Deterministic VM order: numeric when every id parses as an
	// integer, lexicographic otherwise.
	ids := make([]string, 0, len(byVM))
	for id := range byVM {
		ids = append(ids, id)
	}
	allNumeric := true
	for _, id := range ids {
		if _, err := strconv.ParseInt(id, 10, 64); err != nil {
			allNumeric = false
			break
		}
	}
	sort.Slice(ids, func(i, j int) bool {
		if allNumeric {
			a, _ := strconv.ParseInt(ids[i], 10, 64)
			b, _ := strconv.ParseInt(ids[j], 10, 64)
			return a < b
		}
		return ids[i] < ids[j]
	})

	tr := &Trace{Interval: DefaultInterval}
	for dense, id := range ids {
		cpu := make([]float64, ticks)
		mem := make([]float64, ticks)
		count := make([]int, ticks)
		for _, rd := range byVM[id] {
			t := int((rd.ts - minTS) * tsScale / tickSec)
			cpu[t] += float64(rd.cpu * cpuScale)
			mem[t] += float64(rd.mem * memScale)
			count[t]++
		}
		// Average multi-reading ticks, then forward-fill gaps after
		// the first observation (ticks before it stay zero: the VM
		// has not arrived yet — the churn convention, which the
		// allocators rely on for both CPU and memory demand).
		seen := false
		arrival := 0
		var lastCPU, lastMem float64
		for t := 0; t < ticks; t++ {
			if count[t] > 0 {
				lastCPU = clampPct(cpu[t] / float64(count[t]))
				lastMem = clampPct(mem[t] / float64(count[t]))
				if !hasMem {
					lastMem = DefaultClusterMemPct
				}
				if !seen {
					arrival = t
				}
				seen = true
			}
			if seen {
				cpu[t], mem[t] = lastCPU, lastMem
			} else {
				cpu[t], mem[t] = 0, 0
			}
		}
		vm := &VM{ID: dense, CPU: cpu, Mem: mem}
		if hasMem {
			// Class from the lifetime mean only: pre-arrival zeros are
			// absence, not low memory use, and must not bias a
			// late-arriving VM into a lower class.
			alive := 0.0
			for t := arrival; t < ticks; t++ {
				alive += mem[t]
			}
			vm.Class = classFromMeanMem(alive / float64(ticks-arrival))
		} else {
			vm.Class = workload.MidMem
		}
		tr.VMs = append(tr.VMs, vm)
	}
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("trace: cluster: %w", err)
	}
	return tr, nil
}

// parseFinite parses a reading, rejecting the NaN and ±Inf that
// strconv.ParseFloat accepts.
func parseFinite(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		return 0, errors.New("not a finite number")
	}
	return v, err
}

// classFromMeanMem buckets a mean memory level into the paper's three
// profiled classes by the midpoints of their 7/25/43% profiles.
func classFromMeanMem(mean float64) workload.Class {
	switch {
	case mean < 16:
		return workload.LowMem
	case mean < 34:
		return workload.MidMem
	default:
		return workload.HighMem
	}
}

// aliasesFor lists the accepted header names for a logical column.
func aliasesFor(logical string) []string {
	var out []string
	for alias, l := range clusterColumns {
		if l == logical {
			out = append(out, alias)
		}
	}
	sort.Strings(out)
	return out
}

// WriteClusterCSV encodes the trace in the cluster reading-table
// format (timestamp seconds, source vm id, cpu and mem as fractions
// of 1) — the shape ReadClusterCSV ingests. cmd/tracegen uses it so
// the adapter can be exercised without shipping a real dump.
func (t *Trace) WriteClusterCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"timestamp", "vm_id", "cpu_util", "mem_util"}); err != nil {
		return err
	}
	tickSec := int(t.Interval.Seconds())
	for _, vm := range t.VMs {
		for i := range vm.CPU {
			rec := []string{
				strconv.Itoa(i * tickSec),
				strconv.Itoa(vm.ID),
				strconv.FormatFloat(vm.CPU[i]/100, 'f', 5, 64),
				strconv.FormatFloat(vm.Mem[i]/100, 'f', 5, 64),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
