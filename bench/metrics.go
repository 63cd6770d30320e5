package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// metricDef declares one metric the benchmark reports. BENCHMARK.json
// lists the same names, units and directions; a unit test keeps the
// two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the metrics every workload reports with tracing off.
// Each is defined for every workload, so the same name can be gated on
// all of them; what a workload's "answer" and "scenario" are is in the
// README. Workload-specific numbers (scrape and step tails, warm
// what-ifs, scenarios/s) and CPU time per scenario are reported beside
// them but not gated.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "answer_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "heap_alloc_mb_per_scenario", Unit: "MB", Better: "lower"},
	{Name: "max_rss_mb", Unit: "MB", Better: "lower"},
}

// perLayer are the metrics every workload's traced run reports, one
// value per composed pass over the workload's grid (the median of the
// passes). Layers are named after the modules; README.md maps each to
// the end-to-end metric and workload it should move.
var perLayer = []metricDef{
	{Name: "trace.load_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.builds", Unit: "count", Better: "lower"},
	{Name: "forecast.predict_ms", Unit: "ms", Better: "lower"},
	{Name: "forecast.builds", Unit: "count", Better: "lower"},
	{Name: "sweep.input_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "sweep.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "alloc.calls", Unit: "count", Better: "lower"},
	{Name: "alloc.self_ms", Unit: "ms", Better: "lower"},
	{Name: "alloc.slot_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "alloc.EPACT.self_ms", Unit: "ms", Better: "lower"},
	{Name: "alloc.EPACT.slot_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "alloc.COAT.self_ms", Unit: "ms", Better: "lower"},
	{Name: "alloc.COAT.slot_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "dcsim.replay_self_ms", Unit: "ms", Better: "lower"},
	{Name: "dcsim.replay_ms_per_slot", Unit: "ms", Better: "lower"},
	{Name: "topology.dispatch_ms", Unit: "ms", Better: "lower"},
	{Name: "topology.dispatch_calls", Unit: "count", Better: "lower"},
	{Name: "topology.new_stepper_ms", Unit: "ms", Better: "lower"},
	{Name: "topology.step_boundary_ms", Unit: "ms", Better: "lower"},
	{Name: "topology.step_interior_ms", Unit: "ms", Better: "lower"},
	{Name: "topology.result_ms", Unit: "ms", Better: "lower"},
	{Name: "cache.put_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "cache.get_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "cache.row_bytes", Unit: "bytes", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms_total", Unit: "ms", Better: "lower"},
	{Name: "runtime.heap_peak_mb", Unit: "MB", Better: "lower"},
}

// declared maps every metric BENCHMARK.json names to its definition.
var declared = func() map[string]metricDef {
	m := map[string]metricDef{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		m[d.Name] = d
	}
	return m
}()

// value is one reported number with its unit, the shape of the
// "metrics" entries of the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) does (its default "exclusive" method),
// which is how the benchmark's stability check is defined. It needs at
// least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	if ld < 2 {
		return math.NaN(), math.NaN()
	}
	const n = 4
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(3)
}

// percentile returns the nearest-rank p-th percentile of xs: the
// smallest sample with at least p% of the samples at or below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// tailPercentiles is the ladder a tail is picked from, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75}

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to be more than one or two outliers.
const minBeyond = 10

// tailPercentile returns the highest percentile of the ladder that has
// at least minBeyond of n samples beyond it, and false when even the
// lowest rung has fewer (then only the median is reported).
func tailPercentile(n int) (float64, bool) {
	for _, p := range tailPercentiles {
		// The tolerance absorbs 100-99.9 not being exact in binary.
		if float64(n)*(100-p)/100 >= minBeyond-1e-9 {
			return p, true
		}
	}
	return 0, false
}

// percentileName renders a percentile for a metric name: 99 -> "p99",
// 99.9 -> "p99.9".
func percentileName(p float64) string {
	return "p" + strconv.FormatFloat(p, 'g', -1, 64)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// usage is a snapshot of the counters a measured window is charged
// with: process CPU time and cumulative heap allocation.
type usage struct {
	cpu   time.Duration
	alloc uint64
}

// readUsage snapshots process CPU time (user + system) and bytes
// allocated on the heap since the process started.
func readUsage() usage {
	var ru syscall.Rusage
	var u usage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	u.alloc = s[0].Value.Uint64()
	return u
}

// sub returns the usage accrued between b and u.
func (u usage) sub(b usage) usage { return usage{cpu: u.cpu - b.cpu, alloc: u.alloc - b.alloc} }

// maxRSSMB returns the process's peak resident set size in MB
// (getrusage maxrss, which Linux reports in KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// gcSnapshot is the garbage collector's cumulative counters.
type gcSnapshot struct {
	cycles  uint32
	pauseNs uint64
}

// readGC reads the collector counters. ReadMemStats stops the world
// briefly, so it is called only at the edges of a measured window.
func readGC() gcSnapshot {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return gcSnapshot{cycles: m.NumGC, pauseNs: m.PauseTotalNs}
}
