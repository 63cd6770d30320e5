// Command bench is the repository's benchmark. It drives the sweep
// engine, the distributed coordinator and the live daemon only through
// their exported entry points, on four seeded workloads; checks every
// output it times; and prints one JSON result line. Run it from the
// repository root through bench/run.sh, which builds it:
//
//	bash bench/run.sh --workload paper-week --seed 2018 --seconds 20 --trace 0
//	bash bench/run.sh --workload serve-mix --trace 1
//	bash bench/run.sh --workload all
//	bash bench/run.sh --sets 2
//
// With --trace 0 a run measures its workload's end-to-end metrics; with
// --trace 1 it is the separate traced run, which reports per-layer
// metrics, a self-time table and the tracing overhead. "all" runs every
// workload in a child process of its own; --sets is the stability
// check. See README.md.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// defaultSeconds matches run_seconds in BENCHMARK.json.
const defaultSeconds = 20

// watchdog bounds one workload run; a run that hangs is stopped with a
// non-zero exit instead of being killed from outside.
const watchdog = 170 * time.Second

// mb is the unit the benchmark reports memory in: 2^20 bytes.
const mb = 1 << 20

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are the parsed command line.
type options struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	sets     int
	workdir  string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traced int
	fs.StringVar(&o.workload, "workload", "", `workload to run: `+strings.Join(workloadNames(), ", ")+`, or "all"`)
	fs.Int64Var(&o.seed, "seed", pinnedSeed, "workload seed, the only source of randomness")
	fs.IntVar(&o.seconds, "seconds", defaultSeconds, "how long one run measures (1-60)")
	fs.IntVar(&traced, "trace", 0, "0: measure end-to-end metrics; 1: the traced run, reporting per-layer metrics")
	fs.IntVar(&o.sets, "sets", 0, "stability check: run this many sets of every workload, alternating their order")
	fs.StringVar(&o.workdir, "workdir", ".bench_build", "directory for temporary result stores and result files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.traced = traced == 1
	switch {
	case fs.NArg() > 0:
		return badUsage(stderr, "unexpected arguments: %v", fs.Args())
	case o.seconds < 1 || o.seconds > 60:
		return badUsage(stderr, "-seconds %d outside 1-60", o.seconds)
	case traced != 0 && traced != 1:
		return badUsage(stderr, "-trace %d: want 0 or 1", traced)
	case o.sets > 0:
		return stability(o, stdout, stderr)
	case o.workload == "all":
		return runAll(o, stdout, stderr)
	}
	w, ok := lookupWorkload(o.workload)
	if !ok {
		return badUsage(stderr, "unknown workload %q (known: %s, all)", o.workload, strings.Join(workloadNames(), ", "))
	}
	return runOne(w, o, stdout, stderr)
}

func badUsage(stderr io.Writer, format string, args ...any) int {
	fmt.Fprintf(stderr, "bench: "+format+"\n", args...)
	return 2
}

// runCtx is one run of one workload: its inputs, and everything the
// run measured and checked.
type runCtx struct {
	ctx     context.Context
	seed    int64
	seconds time.Duration
	dir     string // temporary directory for result stores, removed at exit

	attempted, failed int
	failures          []string

	metrics map[string]value // the reported metrics BENCHMARK.json names
	extras  map[string]value // reported beside them, not gated
	table   []layerRow       // traced: self time per span name
	spans   [][]span         // traced: one list per tracer

	// samples are the per-run values behind the reported medians,
	// kept in the result file.
	samples map[string][]float64
}

// maxFailures bounds how many failure messages a run keeps.
const maxFailures = 50

// op records one attempted operation — a row, a request, a comparison
// — which failed unless ok.
func (rc *runCtx) op(ok bool, format string, args ...any) {
	rc.attempted++
	if ok {
		return
	}
	rc.failed++
	if len(rc.failures) < maxFailures {
		rc.failures = append(rc.failures, fmt.Sprintf(format, args...))
	}
}

// gate sets one of the metrics BENCHMARK.json declares.
func (rc *runCtx) gate(name string, v float64) {
	d, ok := declared[name]
	if !ok {
		panic("bench: undeclared metric " + name) // a bug in the benchmark, not in its input
	}
	rc.metrics[name] = value{Value: v, Unit: d.Unit}
}

// extra sets a metric that is reported but not gated; a value that is
// not a finite number (a ratio over an empty base) is left out.
func (rc *runCtx) extra(name, unit string, v float64) {
	if !math.IsNaN(v) && !math.IsInf(v, 0) {
		rc.extras[name] = value{Value: v, Unit: unit}
	}
}

// result is the benchmark's output line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// record is the result file a run leaves in the work directory.
type record struct {
	Workload string               `json:"workload"`
	Seed     int64                `json:"seed"`
	Seconds  int                  `json:"seconds"`
	Traced   bool                 `json:"traced"`
	Env      environment          `json:"env"`
	Result   result               `json:"result"`
	Extras   map[string]value     `json:"extras"`
	Failures []string             `json:"failures,omitempty"`
	Layers   []layerRow           `json:"self_time,omitempty"`
	Samples  map[string][]float64 `json:"samples,omitempty"`
}

// runOne runs one workload in this process and prints its result line.
func runOne(w *workload, o options, stdout, stderr io.Writer) int {
	timer := time.AfterFunc(watchdog, func() {
		fmt.Fprintf(stderr, "bench: %s did not finish within %s\n", w.name, watchdog)
		os.Exit(3)
	})
	defer timer.Stop()
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(o.workdir, "run-*")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	ctx, cancel := context.WithTimeout(context.Background(), watchdog)
	defer cancel()

	rc := &runCtx{ctx: ctx, seed: o.seed, seconds: time.Duration(o.seconds) * time.Second, dir: dir,
		metrics: map[string]value{}, extras: map[string]value{}, samples: map[string][]float64{}}
	defs := endToEnd
	warmUp()
	if o.traced {
		defs = perLayer
		w.traced(rc, w)
	} else {
		w.measure(rc, w)
	}

	res := result{Metrics: map[string]value{}}
	for _, d := range defs {
		v, ok := rc.metrics[d.Name]
		finite := ok && !math.IsNaN(v.Value) && !math.IsInf(v.Value, 0)
		rc.op(finite, "metric %s was not measured (value %v)", d.Name, v.Value)
		if finite {
			res.Metrics[d.Name] = v
		}
	}
	rc.extra("failed_frac", "ratio", float64(rc.failed)/float64(rc.attempted))
	res.Correct, res.Attempted, res.Failed = rc.failed == 0, rc.attempted, rc.failed

	rec := record{Workload: w.name, Seed: o.seed, Seconds: o.seconds, Traced: o.traced, Env: currentEnv(),
		Result: res, Extras: rc.extras, Failures: rc.failures, Layers: rc.table, Samples: rc.samples}
	printRecord(stderr, &rec, defs)
	if err := writeFiles(o, &rec, rc.spans); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// writeFiles leaves the run's record, and a traced run's spans, in the
// work directory.
func writeFiles(o options, rec *record, spans [][]span) error {
	dir := filepath.Join(o.workdir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", rec.Workload, rec.Seed, b2i(rec.Traced))
	if err := writeJSON(filepath.Join(dir, name), rec); err != nil {
		return err
	}
	if !rec.Traced {
		return nil
	}
	return writeJSON(filepath.Join(o.workdir, "spans-"+rec.Workload+".json"), struct {
		Workload string   `json:"workload"`
		Seed     int64    `json:"seed"`
		Tracers  [][]span `json:"tracers"`
	}{rec.Workload, rec.Seed, spans})
}

func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// printRecord writes the human-readable report of one run.
func printRecord(w io.Writer, rec *record, defs []metricDef) {
	mode := "tracing off"
	if rec.Traced {
		mode = "traced"
	}
	e := rec.Env
	fmt.Fprintf(w, "%s seed %d, %d s, %s — %s, nproc %d, GOMAXPROCS %d, %s\n",
		rec.Workload, rec.Seed, rec.Seconds, mode, e.CPU, e.NumCPU, e.GOMAXPROCS, e.GoVersion)
	for _, d := range defs {
		if v, ok := rec.Result.Metrics[d.Name]; ok {
			fmt.Fprintf(w, "  %-32s %14.4f %s\n", d.Name, v.Value, v.Unit)
		}
	}
	names := make([]string, 0, len(rec.Extras))
	for n := range rec.Extras {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintln(w, "  reported, not gated:")
	for _, n := range names {
		v := rec.Extras[n]
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", n, v.Value, v.Unit)
	}
	if len(rec.Layers) > 0 {
		fmt.Fprintf(w, "  %-28s %8s %12s %12s\n", "span (self time)", "count", "self ms", "total ms")
		for _, r := range rec.Layers {
			fmt.Fprintf(w, "  %-28s %8d %12.2f %12.2f\n", r.Span, r.Count, r.SelfMs, r.TotalMs)
		}
	}
	for _, f := range rec.Failures {
		fmt.Fprintln(w, "  FAILED:", f)
	}
	fmt.Fprintf(w, "  correct %v: %d of %d operations failed\n", rec.Result.Correct, rec.Result.Failed, rec.Result.Attempted)
}

// environment is the hardware and toolchain a result was measured on.
type environment struct {
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

func currentEnv() environment {
	return environment{
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
	}
}

// cpuModel reads the processor model from /proc/cpuinfo ("unknown"
// where there is none).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
