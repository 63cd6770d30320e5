package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: repro
cpu: SomeCPU
BenchmarkTableI-8   	       3	     53318 ns/op
BenchmarkTableI-8   	       3	     51000 ns/op
BenchmarkTableI-8   	       3	     52500 ns/op
BenchmarkSweepGrid/serial-workers=1-8         	       3	  52304219 ns/op
BenchmarkSweepGrid/serial-workers=1-8         	       3	  51904219 ns/op
BenchmarkSweepGrid/parallel-workers=8-8       	       3	  12304219 ns/op
PASS
ok  	repro	12.3s
`

func TestParseFoldsCountsAndStripsSuffix(t *testing.T) {
	f, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %+v", len(f.Benchmarks), f.Benchmarks)
	}
	// The GOMAXPROCS suffix is stripped, the sub-benchmark path kept.
	e, ok := f.Benchmarks["BenchmarkTableI"]
	if !ok {
		t.Fatalf("BenchmarkTableI missing (suffix not stripped?): %+v", f.Benchmarks)
	}
	if e.NsPerOp != 51000 || e.Runs != 3 {
		t.Errorf("TableI = %+v, want min 51000 over 3 runs", e)
	}
	s, ok := f.Benchmarks["BenchmarkSweepGrid/serial-workers=1"]
	if !ok || s.NsPerOp != 51904219 || s.Runs != 2 {
		t.Errorf("sub-benchmark = %+v ok=%v, want min 51904219 over 2 runs", s, ok)
	}
}

func snapshot(ns map[string]float64) File {
	f := File{Benchmarks: map[string]Entry{}}
	for name, v := range ns {
		f.Benchmarks[name] = Entry{NsPerOp: v, Runs: 3}
	}
	return f
}

func TestGate(t *testing.T) {
	base := snapshot(map[string]float64{"BenchmarkA": 100, "BenchmarkB": 200})

	// Within threshold (and unrelated new benchmarks): pass, with the
	// new benches listed deterministically (sorted) and counted so a
	// stale baseline is loud, never silently narrower.
	var buf bytes.Buffer
	cur := snapshot(map[string]float64{"BenchmarkA": 120, "BenchmarkB": 190, "BenchmarkNew": 5, "BenchmarkAlso": 7})
	if err := Gate(&buf, base, cur, 25, 0, 0, 0); err != nil {
		t.Errorf("within-threshold gate failed: %v", err)
	}
	out := buf.String()
	also := strings.Index(out, "BenchmarkAlso: new benchmark")
	fresh := strings.Index(out, "BenchmarkNew: new benchmark")
	if also < 0 || fresh < 0 || also > fresh {
		t.Errorf("new benchmarks not reported in sorted order:\n%s", out)
	}
	if !strings.Contains(out, "2 new benchmark(s) are not gated") {
		t.Errorf("new-benchmark count missing:\n%s", out)
	}

	// Beyond threshold: fail, naming the offender.
	cur = snapshot(map[string]float64{"BenchmarkA": 126, "BenchmarkB": 190})
	err := Gate(&bytes.Buffer{}, base, cur, 25, 0, 0, 0)
	if err == nil || !strings.Contains(err.Error(), "BenchmarkA") {
		t.Errorf("regression gate error = %v, want BenchmarkA named", err)
	}

	// The same regression under the noise floor is reported, not gated
	// (microbenchmarks are noise-dominated at low -benchtime)...
	buf.Reset()
	if err := Gate(&buf, base, cur, 25, 150, 0, 0); err != nil {
		t.Errorf("under-floor regression failed the gate: %v", err)
	}
	if !strings.Contains(buf.String(), "under the 150 ns gate floor") {
		t.Errorf("floor skip not reported:\n%s", buf.String())
	}
	// ...but a benchmark above the floor still gates.
	cur = snapshot(map[string]float64{"BenchmarkA": 100, "BenchmarkB": 300})
	if err := Gate(&bytes.Buffer{}, base, cur, 25, 150, 0, 0); err == nil || !strings.Contains(err.Error(), "BenchmarkB") {
		t.Errorf("above-floor regression error = %v, want BenchmarkB named", err)
	}

	// A benchmark vanishing from the current run fails the gate.
	cur = snapshot(map[string]float64{"BenchmarkA": 100})
	err = Gate(&bytes.Buffer{}, base, cur, 25, 0, 0, 0)
	if err == nil || !strings.Contains(err.Error(), "BenchmarkB") {
		t.Errorf("missing-benchmark gate error = %v, want BenchmarkB named", err)
	}
}

func withMem(ns float64, b, a int64) Entry {
	return Entry{NsPerOp: ns, BPerOp: &b, AllocsPerOp: &a, Runs: 3}
}

func TestParseMemColumns(t *testing.T) {
	const out = `BenchmarkMem-8   	     100	   8093112 ns/op	  244196 B/op	    2329 allocs/op
BenchmarkMem-8   	     100	   8378464 ns/op	  243863 B/op	    2328 allocs/op
BenchmarkPlain-8 	     100	      1234 ns/op
`
	f, err := Parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	m := f.Benchmarks["BenchmarkMem"]
	if m.BPerOp == nil || *m.BPerOp != 243863 || m.AllocsPerOp == nil || *m.AllocsPerOp != 2328 {
		t.Errorf("memory columns not folded to their minima: %+v", m)
	}
	p := f.Benchmarks["BenchmarkPlain"]
	if p.BPerOp != nil || p.AllocsPerOp != nil {
		t.Errorf("benchmark without -benchmem got memory stats: %+v", p)
	}
	// Round trip: a measured zero stays distinct from absent.
	zero := withMem(10, 0, 0)
	data, err := json.Marshal(File{Benchmarks: map[string]Entry{"BenchmarkZ": zero}})
	if err != nil {
		t.Fatal(err)
	}
	var back File
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	z := back.Benchmarks["BenchmarkZ"]
	if z.BPerOp == nil || *z.BPerOp != 0 || z.AllocsPerOp == nil || *z.AllocsPerOp != 0 {
		t.Errorf("measured zero did not survive the JSON round trip: %+v", z)
	}
}

func TestGateMemoryMetrics(t *testing.T) {
	mem := func(entries map[string]Entry) File { return File{Benchmarks: entries} }

	// Within threshold: passes.
	base := mem(map[string]Entry{"BenchmarkA": withMem(100, 1000, 50)})
	cur := mem(map[string]Entry{"BenchmarkA": withMem(100, 1100, 55)})
	if err := Gate(&bytes.Buffer{}, base, cur, 25, 0, 0, 0); err != nil {
		t.Errorf("within-threshold memory gate failed: %v", err)
	}

	// B/op beyond threshold: fails naming the metric.
	cur = mem(map[string]Entry{"BenchmarkA": withMem(100, 2000, 50)})
	err := Gate(&bytes.Buffer{}, base, cur, 25, 0, 0, 0)
	if err == nil || !strings.Contains(err.Error(), "B/op") {
		t.Errorf("B/op regression error = %v, want B/op named", err)
	}

	// allocs/op beyond threshold: fails.
	cur = mem(map[string]Entry{"BenchmarkA": withMem(100, 1000, 80)})
	err = Gate(&bytes.Buffer{}, base, cur, 25, 0, 0, 0)
	if err == nil || !strings.Contains(err.Error(), "allocs/op") {
		t.Errorf("allocs/op regression error = %v, want allocs/op named", err)
	}

	// A zero baseline is an allocation-freeness claim: one allocation
	// fails even though the percentage is undefined and a floor is set.
	base = mem(map[string]Entry{"BenchmarkA": withMem(100, 0, 0)})
	cur = mem(map[string]Entry{"BenchmarkA": withMem(100, 16, 1)})
	err = Gate(&bytes.Buffer{}, base, cur, 25, 0, 1024, 20)
	if err == nil || !strings.Contains(err.Error(), "allocation-free baseline") {
		t.Errorf("zero-baseline gate error = %v, want allocation-free violation", err)
	}
	// And a still-zero current passes it.
	cur = mem(map[string]Entry{"BenchmarkA": withMem(100, 0, 0)})
	if err := Gate(&bytes.Buffer{}, base, cur, 25, 0, 1024, 20); err != nil {
		t.Errorf("zero-vs-zero gate failed: %v", err)
	}

	// Floors mute small positive footprints but not the ns gate.
	base = mem(map[string]Entry{"BenchmarkA": withMem(100, 512, 10)})
	cur = mem(map[string]Entry{"BenchmarkA": withMem(100, 1024, 19)})
	var buf bytes.Buffer
	if err := Gate(&buf, base, cur, 25, 0, 1024, 20); err != nil {
		t.Errorf("under-floor memory regression failed the gate: %v", err)
	}
	if !strings.Contains(buf.String(), "gate floor") {
		t.Errorf("floor skip not reported:\n%s", buf.String())
	}

	// A baseline with memory stats gates their presence: a current run
	// without -benchmem must fail, not shrink coverage silently.
	cur = mem(map[string]Entry{"BenchmarkA": {NsPerOp: 100, Runs: 3}})
	err = Gate(&bytes.Buffer{}, base, cur, 25, 0, 0, 0)
	if err == nil || !strings.Contains(err.Error(), "-benchmem") {
		t.Errorf("missing-memstats gate error = %v, want -benchmem hint", err)
	}

	// The reverse (current has stats, baseline does not) stays a pass:
	// refreshing the baseline is how the new coverage lands.
	base = mem(map[string]Entry{"BenchmarkA": {NsPerOp: 100, Runs: 3}})
	cur = mem(map[string]Entry{"BenchmarkA": withMem(100, 99999, 9999)})
	if err := Gate(&bytes.Buffer{}, base, cur, 25, 0, 0, 0); err != nil {
		t.Errorf("baseline without memory stats gated them: %v", err)
	}
}

// TestEndToEnd drives the CLI: convert sample output to JSON, then
// gate a run against the snapshot it just wrote (self vs self passes).
func TestEndToEnd(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "bench.txt")
	out := filepath.Join(dir, "bench.json")
	if err := os.WriteFile(in, []byte(sampleOutput), 0o644); err != nil {
		t.Fatal(err)
	}

	var stdout, stderr bytes.Buffer
	if err := run([]string{"-in", in, "-out", out, "-note", "test snapshot"}, &stdout, &stderr); err != nil {
		t.Fatalf("convert: %v\n%s", err, stderr.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v\n%s", err, data)
	}
	if f.Note != "test snapshot" || len(f.Benchmarks) != 3 {
		t.Errorf("snapshot = %+v, want note and 3 benchmarks", f)
	}

	stdout.Reset()
	if err := run([]string{"-in", in, "-baseline", out}, &stdout, &stderr); err != nil {
		t.Fatalf("self-gate: %v\n%s", err, stderr.String())
	}
	if !strings.Contains(stdout.String(), "gate ok") {
		t.Errorf("gate output missing verdict:\n%s", stdout.String())
	}
}

func TestCLIErrors(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "empty.txt")
	if err := os.WriteFile(in, []byte("no benchmarks here\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	real := filepath.Join(dir, "bench.txt")
	if err := os.WriteFile(real, []byte(sampleOutput), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"no-action", []string{"-in", in}, "nothing to do"},
		{"empty-input", []string{"-in", in, "-out", filepath.Join(dir, "x.json")}, "no benchmark results"},
		{"missing-input", []string{"-in", "/does/not/exist", "-out", "x.json"}, "no such file"},
		{"missing-baseline", []string{"-in", real, "-baseline", "/does/not/exist"}, "no such file"},
		{"stray-args", []string{"extra"}, "unexpected arguments"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			err := run(c.args, &stdout, &stderr)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("run(%v) = %v, want mention of %q", c.args, err, c.want)
			}
		})
	}
}

func TestParseRecordsHardware(t *testing.T) {
	f, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if want := (Hardware{CPU: "SomeCPU", GOMAXPROCS: 8}); f.Hardware != want {
		t.Errorf("hardware = %+v, want %+v", f.Hardware, want)
	}

	// No name suffix means GOMAXPROCS 1.
	f, err = Parse(strings.NewReader("cpu: Other CPU @ 2.0GHz \nBenchmarkA   \t 3\t 100 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if want := (Hardware{CPU: "Other CPU @ 2.0GHz", GOMAXPROCS: 1}); f.Hardware != want {
		t.Errorf("hardware = %+v, want %+v", f.Hardware, want)
	}

	// One snapshot describes one hardware setting.
	for name, out := range map[string]string{
		"mixes GOMAXPROCS": "BenchmarkA   \t 3\t 100 ns/op\nBenchmarkA-2 \t 3\t 60 ns/op\n",
		"mixes CPUs":       "cpu: X\nBenchmarkA-2 \t 3\t 100 ns/op\ncpu: Y\nBenchmarkB-2 \t 3\t 100 ns/op\n",
	} {
		if _, err := Parse(strings.NewReader(out)); err == nil || !strings.Contains(err.Error(), strings.Fields(name)[0]) {
			t.Errorf("%s: Parse error = %v", name, err)
		}
	}
}

func TestGateHardwareRecord(t *testing.T) {
	hw := Hardware{CPU: "SomeCPU", GOMAXPROCS: 2, GoVersion: "go1.24.0"}
	base := snapshot(map[string]float64{"BenchmarkA": 100})
	base.Hardware = hw
	cur := snapshot(map[string]float64{"BenchmarkA": 100})
	cur.Hardware = hw
	if err := Gate(&bytes.Buffer{}, base, cur, 25, 0, 0, 0); err != nil {
		t.Errorf("matching hardware refused: %v", err)
	}

	for name, mut := range map[string]func(*Hardware){
		"cpu":        func(h *Hardware) { h.CPU = "OtherCPU" },
		"gomaxprocs": func(h *Hardware) { h.GOMAXPROCS = 4 },
		"go-version": func(h *Hardware) { h.GoVersion = "go1.25.0" },
		"unrecorded": func(h *Hardware) { *h = Hardware{} },
	} {
		t.Run(name, func(t *testing.T) {
			cur.Hardware = hw
			mut(&cur.Hardware)
			var buf bytes.Buffer
			err := Gate(&buf, base, cur, 25, 0, 0, 0)
			if err == nil || !strings.Contains(err.Error(), "different hardware") ||
				!strings.Contains(err.Error(), base.Hardware.String()) || !strings.Contains(err.Error(), cur.Hardware.String()) {
				t.Errorf("mismatched hardware error = %v, want both records named", err)
			}
			if buf.Len() != 0 {
				t.Errorf("a refused gate still compared benchmarks:\n%s", buf.String())
			}
		})
	}

	// A baseline without a record compares, and says it did unchecked.
	cur.Hardware = hw
	base.Hardware = Hardware{}
	base.Benchmarks["BenchmarkA"] = Entry{NsPerOp: 50, Runs: 3}
	var buf bytes.Buffer
	err := Gate(&buf, base, cur, 25, 0, 0, 0)
	if err == nil || !strings.Contains(err.Error(), "BenchmarkA") {
		t.Errorf("unrecorded baseline: gate error = %v, want the regression compared", err)
	}
	if !strings.Contains(buf.String(), "no hardware record") {
		t.Errorf("unrecorded baseline compared without a note:\n%s", buf.String())
	}
}

// TestCLIRefusesForeignBaseline drives the mismatch through the CLI: a
// baseline recorded on other hardware fails the gate before any
// benchmark is compared, and the snapshot records this toolchain.
func TestCLIRefusesForeignBaseline(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "bench.txt")
	if err := os.WriteFile(in, []byte(sampleOutput), 0o644); err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(dir, "snap.json")
	if err := run([]string{"-in", in, "-out", snap}, &bytes.Buffer{}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if want := (Hardware{CPU: "SomeCPU", GOMAXPROCS: 8, GoVersion: runtime.Version()}); f.Hardware != want {
		t.Fatalf("snapshot hardware = %+v, want %+v", f.Hardware, want)
	}

	f.Hardware.CPU = "ForeignCPU"
	data, err = json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	foreign := filepath.Join(dir, "foreign.json")
	if err := os.WriteFile(foreign, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout bytes.Buffer
	err = run([]string{"-in", in, "-baseline", foreign}, &stdout, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "different hardware") || !strings.Contains(err.Error(), "ForeignCPU") {
		t.Errorf("foreign baseline gate = %v, want a hardware refusal", err)
	}
	if strings.Contains(stdout.String(), "gate ok") {
		t.Errorf("foreign baseline reported gate ok:\n%s", stdout.String())
	}
}
