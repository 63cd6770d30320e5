package trace

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/workload"
)

// writeTempTrace generates a small trace and writes it in the native
// CSV format, returning the path and the generated trace.
func writeTempTrace(t *testing.T, vms, days int, seed int64) (string, *Trace) {
	t.Helper()
	cfg := DefaultConfig(seed)
	cfg.VMs = vms
	cfg.Days = days
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path, tr
}

func TestParseSourceSpec(t *testing.T) {
	cases := []struct {
		spec    string
		backend string
		wantErr string
	}{
		{"synthetic", "synthetic", ""},
		{"", "synthetic", ""},
		{"csv:traces/week.csv", "csv", ""},
		{"cluster:dump.csv", "cluster", ""},
		{"csv", "", "needs a file path"},
		{"cluster", "", "needs a file path"},
		{"synthetic:ref", "", "takes no ref"},
		{"bogus:x", "", `unknown trace backend "bogus"`},
	}
	for _, c := range cases {
		src, err := ParseSourceSpec(c.spec)
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("ParseSourceSpec(%q) error = %v, want mention of %q", c.spec, err, c.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseSourceSpec(%q): %v", c.spec, err)
			continue
		}
		if src.Format != c.backend {
			t.Errorf("ParseSourceSpec(%q).Format = %q, want %q", c.spec, src.Format, c.backend)
		}
	}
}

func TestCSVSourceRoundTripAndFit(t *testing.T) {
	path, orig := writeTempTrace(t, 8, 2, 7)
	src := Source{Format: "csv", Path: path}

	// Full shape round-trips (CSV stores 3 decimals, so compare to
	// that precision).
	tr, err := src.Load(Request{VMs: 8, Days: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.VMs) != 8 || tr.Samples() != 2*SamplesPerDay {
		t.Fatalf("loaded %d VMs × %d samples, want 8 × %d", len(tr.VMs), tr.Samples(), 2*SamplesPerDay)
	}
	for v, vm := range tr.VMs {
		if vm.Class != orig.VMs[v].Class {
			t.Fatalf("VM %d class = %v, want %v", v, vm.Class, orig.VMs[v].Class)
		}
		for i := range vm.CPU {
			if math.Abs(vm.CPU[i]-orig.VMs[v].CPU[i]) > 0.001 {
				t.Fatalf("VM %d sample %d cpu = %v, want %v", v, i, vm.CPU[i], orig.VMs[v].CPU[i])
			}
		}
	}

	// A smaller request takes a prefix.
	small, err := src.Load(Request{VMs: 3, Days: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(small.VMs) != 3 || small.Samples() != SamplesPerDay {
		t.Fatalf("fit trace is %d VMs × %d samples, want 3 × %d", len(small.VMs), small.Samples(), SamplesPerDay)
	}

	// Requests beyond the file fail loudly instead of padding.
	if _, err := src.Load(Request{VMs: 9, Days: 1}); err == nil || !strings.Contains(err.Error(), "holds 8 VMs") {
		t.Errorf("oversized VM request error = %v", err)
	}
	if _, err := src.Load(Request{VMs: 8, Days: 3}); err == nil || !strings.Contains(err.Error(), "scenario needs") {
		t.Errorf("oversized day request error = %v", err)
	}
}

func TestCSVSourceLoadsAreIndependent(t *testing.T) {
	// Loads must never alias: churning one loaded trace cannot leak
	// into another load of the same source.
	path, _ := writeTempTrace(t, 6, 2, 3)
	src := Source{Format: "csv", Path: path}
	a, err := src.Load(Request{VMs: 6, Days: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.ApplyChurn(ChurnConfig{ArrivalFraction: 1, DepartureFraction: 1, MinLifetimeDays: 0.5, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	b, err := src.Load(Request{VMs: 6, Days: 2})
	if err != nil {
		t.Fatal(err)
	}
	zero := 0
	for _, vm := range b.VMs {
		for _, c := range vm.CPU[:SamplesPerDay] {
			if c == 0 {
				zero++
			}
		}
	}
	if zero > SamplesPerDay {
		t.Errorf("second load shows %d zeroed samples — churn leaked across loads", zero)
	}
}

func TestFingerprintStability(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.csv")
	if err := os.WriteFile(path, []byte("vm_id,class,sample,cpu_pct,mem_pct\n0,low-mem,0,10.000,5.000\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	src := Source{Format: "csv", Path: path}
	fp1, err := src.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fp2, err := src.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp1 != fp2 {
		t.Errorf("fingerprint not stable: %q vs %q", fp1, fp2)
	}
	if !strings.Contains(fp1, path) {
		t.Errorf("fingerprint %q does not mention the path", fp1)
	}

	// Same content at another path → different key (path is part of
	// the identity); changed content at the same path → different key.
	other := filepath.Join(dir, "u.csv")
	data, _ := os.ReadFile(path)
	if err := os.WriteFile(other, data, 0o644); err != nil {
		t.Fatal(err)
	}
	fpOther, err := Source{Format: "csv", Path: other}.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fpOther == fp1 {
		t.Error("different path produced the same fingerprint")
	}
	if err := os.WriteFile(path, append(data, []byte("0,low-mem,1,11.000,5.000\n")...), 0o644); err != nil {
		t.Fatal(err)
	}
	fp3, err := src.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp3 == fp1 {
		t.Error("edited content kept the old fingerprint")
	}

	if fp, err := (Source{Format: "synthetic"}).Fingerprint(); err != nil || fp != "synthetic" {
		t.Errorf("synthetic fingerprint = %q, %v", fp, err)
	}

	// Pinned strings: fingerprints are result-cache key ingredients,
	// so their exact form — backend, path, then the first 16 bytes of
	// the content's SHA-256 in hex — must never drift, and a source
	// reading the file must agree with one holding its bytes as
	// shipped Content. (The topology:file: form is pinned in package
	// topology.)
	for _, c := range []struct{ format, body, hash string }{
		{"csv", "vm_id,class,sample,cpu_pct,mem_pct\n0,low-mem,0,10.000,5.000\n", "cfb38616dc912c4fdd48c68eb3ede042"},
		{"cluster", "timestamp,vm_id,cpu_pct,mem_pct\n0,a,10.0,5.0\n", "78cad3940be62c88c55f944366f2bd27"},
	} {
		path := filepath.Join(dir, "pinned-"+c.format+".csv")
		if err := os.WriteFile(path, []byte(c.body), 0o644); err != nil {
			t.Fatal(err)
		}
		want := c.format + ":" + path + ":" + c.hash
		fromDisk, err := Source{Format: c.format, Path: path}.Fingerprint()
		if err != nil || fromDisk != want {
			t.Errorf("%s fingerprint from disk = %q, %v; want %q", c.format, fromDisk, err, want)
		}
		shipped, err := SourceWithContent(c.format+":"+path, []byte(c.body))
		if err != nil {
			t.Fatal(err)
		}
		if fromContent, err := shipped.Fingerprint(); err != nil || fromContent != want {
			t.Errorf("%s fingerprint from content = %q, %v; want %q", c.format, fromContent, err, want)
		}
	}
}

func TestReadCSVMalformedRows(t *testing.T) {
	header := "vm_id,class,sample,cpu_pct,mem_pct\n"
	cases := []struct {
		name, body, want string
	}{
		{"bad-id", header + "x,low-mem,0,10,5\n", "bad vm_id"},
		{"bad-class", header + "0,huge-mem,0,10,5\n", "unknown class"},
		{"bad-sample", header + "0,low-mem,first,10,5\n", "bad sample"},
		{"bad-cpu", header + "0,low-mem,0,fast,5\n", "bad cpu"},
		{"bad-mem", header + "0,low-mem,0,10,lots\n", "bad mem"},
		{"out-of-order", header + "0,low-mem,1,10,5\n", "out of order"},
		{"wrong-width", header + "0,low-mem,0\n", "line 2"},
		{"unit-mismatch", header + "0,low-mem,0,150,5\n", "outside [0,100]"},
		{"bad-header", "a,b,c\n", "unexpected CSV header"},
		{"empty", "", "reading header"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ReadCSV(strings.NewReader(c.body))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("ReadCSV error = %v, want mention of %q", err, c.want)
			}
			// Malformed rows must name their line (range violations
			// surface from the whole-trace validation pass instead).
			if c.name != "bad-header" && c.name != "empty" && c.name != "unit-mismatch" &&
				!strings.Contains(err.Error(), "line 2") {
				t.Errorf("error %v does not name line 2", err)
			}
		})
	}
}

func TestClusterAdapterNormalisation(t *testing.T) {
	// Two VMs, fractional units, 150 s reporting period (two readings
	// per 5-minute tick), extra columns, shuffled rows, and a gap for
	// vm b: tick 0 has readings, tick 1 has none (forward-filled),
	// tick 2 has one.
	dump := `vm_id,extra,timestamp,cpu_util,mem_util
b,x,0,0.40,0.10
a,x,0,0.10,0.30
a,x,150,0.30,0.30
a,x,300,0.50,0.50
a,x,450,0.70,0.50
a,x,600,0.90,0.70
b,x,700,0.60,0.10
`
	tr, err := ReadClusterCSV(strings.NewReader(dump))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.VMs) != 2 {
		t.Fatalf("adapter produced %d VMs, want 2", len(tr.VMs))
	}
	if tr.Samples() != 3 {
		t.Fatalf("adapter produced %d ticks, want 3", tr.Samples())
	}
	// Lexicographic id order: a before b, renumbered densely.
	a, b := tr.VMs[0], tr.VMs[1]
	if a.ID != 0 || b.ID != 1 {
		t.Fatalf("dense ids = %d, %d, want 0, 1", a.ID, b.ID)
	}
	// vm a: tick 0 averages (10+30)/2 = 20, tick 1 averages (50+70)/2
	// = 60, tick 2 is 90. Fractions were scaled to percent.
	wantA := []float64{20, 60, 90}
	for i, want := range wantA {
		if math.Abs(a.CPU[i]-want) > 1e-9 {
			t.Errorf("vm a cpu[%d] = %v, want %v", i, a.CPU[i], want)
		}
	}
	// vm b: tick 0 = 40, tick 1 forward-fills 40, tick 2 = 60.
	wantB := []float64{40, 40, 60}
	for i, want := range wantB {
		if math.Abs(b.CPU[i]-want) > 1e-9 {
			t.Errorf("vm b cpu[%d] = %v, want %v", i, b.CPU[i], want)
		}
	}
	// Classes from mean mem: a ≈ 46% → high-mem, b = 10% → low-mem.
	if a.Class != workload.HighMem || b.Class != workload.LowMem {
		t.Errorf("classes = %v, %v, want high-mem, low-mem", a.Class, b.Class)
	}
}

func TestClusterAdapterConventions(t *testing.T) {
	t.Run("microsecond-timestamps-and-late-arrival", func(t *testing.T) {
		// Google-style µs timestamps; vm 2 arrives at the second tick
		// so its first tick reads zero.
		dump := "time,instance_id,avg_cpu\n" +
			"600000000000,1,50\n" +
			"600300000000,2,30\n" +
			"600300000000,1,70\n"
		tr, err := ReadClusterCSV(strings.NewReader(dump))
		if err != nil {
			t.Fatal(err)
		}
		if tr.Samples() != 2 {
			t.Fatalf("%d ticks, want 2", tr.Samples())
		}
		vm1, vm2 := tr.VMs[0], tr.VMs[1]
		if vm1.CPU[0] != 50 || vm1.CPU[1] != 70 {
			t.Errorf("vm 1 cpu = %v, want [50 70]", vm1.CPU)
		}
		if vm2.CPU[0] != 0 || vm2.CPU[1] != 30 {
			t.Errorf("vm 2 cpu = %v, want [0 30]", vm2.CPU)
		}
		// No mem column: the mid-mem profile is reported from arrival
		// onward; pre-arrival ticks stay zero like CPU (an absent VM
		// must not occupy memory in the packers).
		if vm1.Mem[1] != DefaultClusterMemPct || vm1.Class != workload.MidMem {
			t.Errorf("missing mem column: mem = %v, class = %v", vm1.Mem[1], vm1.Class)
		}
		if vm2.Mem[0] != 0 || vm2.Mem[1] != DefaultClusterMemPct {
			t.Errorf("late-arrival mem = %v, want [0 %v]", vm2.Mem, DefaultClusterMemPct)
		}
		if vm2.Class != workload.MidMem {
			t.Errorf("late-arrival class = %v, want mid-mem regardless of arrival", vm2.Class)
		}
	})

	t.Run("short-microsecond-dump-detected-by-step", func(t *testing.T) {
		// A 10-minute Google-style excerpt: offsets too small for the
		// magnitude rule (max 6e8 < 1e11), but the 3e8 µs reporting
		// step gives the unit away. As seconds this would be ~2M
		// ticks; as microseconds it is 3.
		dump := "time,instance_id,avg_cpu\n" +
			"0,1,10\n" +
			"300000000,1,20\n" +
			"600000000,1,30\n"
		tr, err := ReadClusterCSV(strings.NewReader(dump))
		if err != nil {
			t.Fatal(err)
		}
		if tr.Samples() != 3 {
			t.Fatalf("%d ticks, want 3 (microsecond step not detected)", tr.Samples())
		}
	})

	t.Run("late-arrival-class-uses-lifetime-mean", func(t *testing.T) {
		// A VM at a steady 40% memory (high-mem) arriving at the
		// second of four ticks: pre-arrival zeros must not drag its
		// class down.
		dump := "timestamp,vm_id,cpu_pct,mem_pct\n" +
			"0,a,10,5\n" + "900,a,10,5\n" +
			"300,b,50,40\n" + "600,b,50,40\n" + "900,b,50,40\n"
		tr, err := ReadClusterCSV(strings.NewReader(dump))
		if err != nil {
			t.Fatal(err)
		}
		late := tr.VMs[1]
		if late.Mem[0] != 0 {
			t.Errorf("pre-arrival mem = %v, want 0", late.Mem[0])
		}
		if late.Class != workload.HighMem {
			t.Errorf("late-arrival class = %v, want high-mem (lifetime mean 40%%)", late.Class)
		}
	})

	t.Run("blank-lines-keep-physical-line-numbers", func(t *testing.T) {
		// encoding/csv skips blank lines; the reported line number
		// must still be the physical one.
		dump := "timestamp,vm_id,cpu\n\n\n0,1,hot\n"
		_, err := ReadClusterCSV(strings.NewReader(dump))
		if err == nil || !strings.Contains(err.Error(), "line 4") {
			t.Errorf("error = %v, want mention of physical line 4", err)
		}
	})

	t.Run("percent-columns-clamped", func(t *testing.T) {
		dump := "timestamp,vm_id,cpu_pct,mem_pct\n0,1,130,50\n"
		tr, err := ReadClusterCSV(strings.NewReader(dump))
		if err != nil {
			t.Fatal(err)
		}
		if got := tr.VMs[0].CPU[0]; got != 100 {
			t.Errorf("overrange percent cpu = %v, want clamped 100", got)
		}
	})

	t.Run("numeric-id-order", func(t *testing.T) {
		dump := "timestamp,vm_id,cpu\n0,10,10\n0,9,20\n"
		tr, err := ReadClusterCSV(strings.NewReader(dump))
		if err != nil {
			t.Fatal(err)
		}
		if tr.VMs[0].CPU[0] != 20 || tr.VMs[1].CPU[0] != 10 {
			t.Errorf("numeric ids not ordered numerically: %v, %v", tr.VMs[0].CPU[0], tr.VMs[1].CPU[0])
		}
	})

	t.Run("errors", func(t *testing.T) {
		cases := []struct{ name, body, want string }{
			{"no-cpu-column", "timestamp,vm_id,disk\n", "no cpu column"},
			{"no-readings", "timestamp,vm_id,cpu\n", "no readings"},
			{"bad-timestamp", "timestamp,vm_id,cpu\nnoon,1,10\n", "line 2: bad timestamp"},
			{"bad-cpu", "timestamp,vm_id,cpu\n0,1,hot\n", "line 2: bad cpu"},
			{"negative-cpu", "timestamp,vm_id,cpu\n0,1,-4\n", "negative cpu"},
			{"empty-vm", "timestamp,vm_id,cpu\n0,,10\n", "empty vm id"},
			{"short-row", "timestamp,vm_id,cpu\n0,1\n", "line 2"},
		}
		for _, c := range cases {
			if _, err := ReadClusterCSV(strings.NewReader(c.body)); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s: error = %v, want mention of %q", c.name, err, c.want)
			}
		}
	})
}

func TestClusterSourceRoundTripsTracegenOutput(t *testing.T) {
	// tracegen -format cluster → cluster adapter must reproduce the
	// generated trace to the emitted precision.
	cfg := DefaultConfig(11)
	cfg.VMs = 5
	cfg.Days = 1
	orig, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cluster.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := orig.WriteClusterCSV(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	tr, err := Source{Format: "cluster", Path: path}.Load(Request{VMs: 5, Days: 1})
	if err != nil {
		t.Fatal(err)
	}
	for v, vm := range tr.VMs {
		for i := range vm.CPU {
			if math.Abs(vm.CPU[i]-orig.VMs[v].CPU[i]) > 0.01 {
				t.Fatalf("VM %d sample %d cpu = %v, want ≈%v", v, i, vm.CPU[i], orig.VMs[v].CPU[i])
			}
			if math.Abs(vm.Mem[i]-orig.VMs[v].Mem[i]) > 0.01 {
				t.Fatalf("VM %d sample %d mem = %v, want ≈%v", v, i, vm.Mem[i], orig.VMs[v].Mem[i])
			}
		}
	}
}
