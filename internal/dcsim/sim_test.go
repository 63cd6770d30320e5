package dcsim

import (
	"math"
	"runtime"
	"strings"
	"testing"
	"time"
	"weak"

	"repro/internal/alloc"
	"repro/internal/forecast"
	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/trace"
	"repro/internal/units"
)

// testTrace builds a small 9-day trace (7 history + 2 eval) so tests
// stay fast while exercising the full pipeline.
func testTrace(t *testing.T, vms int) *trace.Trace {
	t.Helper()
	cfg := trace.DefaultConfig(17)
	cfg.VMs = vms
	cfg.Days = 9
	tr, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func testConfig(t *testing.T, tr *trace.Trace, pol alloc.Policy, ps *PredictionSet) Config {
	t.Helper()
	return Config{
		Trace:       tr,
		Predictions: ps,
		HistoryDays: 7,
		EvalDays:    2,
		Policy:      pol,
		Server:      power.NTCServer(),
		Platform:    platform.NTCServer(),
		MaxServers:  600,
	}
}

func oracle(t *testing.T, tr *trace.Trace) *PredictionSet {
	t.Helper()
	ps, err := Predict(tr, nil, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

func TestPredictOracleEqualsActual(t *testing.T) {
	tr := testTrace(t, 20)
	ps := oracle(t, tr)
	if ps.Predictor != "oracle" {
		t.Errorf("predictor = %q, want oracle", ps.Predictor)
	}
	evalStart := 7 * trace.SamplesPerDay
	for v := range tr.VMs {
		for i := 0; i < 2*trace.SamplesPerDay; i++ {
			if ps.CPU[v][i] != tr.VMs[v].CPU[evalStart+i] {
				t.Fatalf("oracle CPU mismatch at VM %d sample %d", v, i)
			}
		}
	}
}

func TestPredictARIMAWithinRange(t *testing.T) {
	tr := testTrace(t, 12)
	ps, err := Predict(tr, &forecast.ARIMA{Cfg: forecast.DefaultConfig()}, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Predictor == "oracle" {
		t.Error("predictor name not propagated")
	}
	for v := range ps.CPU {
		if len(ps.CPU[v]) != 2*trace.SamplesPerDay {
			t.Fatalf("VM %d: %d samples, want %d", v, len(ps.CPU[v]), 2*trace.SamplesPerDay)
		}
		for i, p := range ps.CPU[v] {
			if p < 0 || p > 100 || math.IsNaN(p) {
				t.Fatalf("VM %d forecast[%d] = %v", v, i, p)
			}
		}
	}
}

func TestPredictValidation(t *testing.T) {
	tr := testTrace(t, 5)
	if _, err := Predict(tr, nil, 0, 2); err == nil {
		t.Error("historyDays=0 accepted")
	}
	if _, err := Predict(tr, nil, 7, 20); err == nil {
		t.Error("eval beyond trace accepted")
	}
}

func TestRunProducesConsistentSlots(t *testing.T) {
	tr := testTrace(t, 60)
	ps := oracle(t, tr)
	spec := alloc.ServerSpec{Cores: 16, MemContainers: 16, FMax: units.GHz(3.1), FMin: units.GHz(0.1)}
	res, err := Run(testConfig(t, tr, alloc.NewCOAT(spec), ps))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Slots) != 48 {
		t.Fatalf("slots = %d, want 48 (2 days)", len(res.Slots))
	}
	for _, s := range res.Slots {
		if s.Energy <= 0 {
			t.Errorf("slot %d: non-positive energy", s.Slot)
		}
		if s.ActiveServers <= 0 {
			t.Errorf("slot %d: no active servers", s.Slot)
		}
		if s.Violations < 0 {
			t.Errorf("slot %d: negative violations", s.Slot)
		}
	}
	if res.TotalEnergy <= 0 || res.MeanActive <= 0 {
		t.Error("aggregates not populated")
	}
	if res.PeakActive < int(res.MeanActive) {
		t.Error("peak active below mean")
	}
}

func TestOracleRunHasNoViolationsForEPACT(t *testing.T) {
	// With perfect predictions and EPACT's slack (packing to ≈61% of
	// capacity while 100% is deliverable), overutilisation should be
	// essentially absent.
	tr := testTrace(t, 60)
	ps := oracle(t, tr)
	res, err := Run(testConfig(t, tr, &alloc.EPACT{Model: power.NTCServer()}, ps))
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalViol != 0 {
		t.Errorf("EPACT oracle violations = %d, want 0", res.TotalViol)
	}
}

func TestEPACTUsesMoreServersButLessEnergyThanCOAT(t *testing.T) {
	// The paper's core result (Figs. 5 and 6): consolidation (COAT)
	// activates fewer servers yet consumes more energy on NTC
	// servers.
	tr := testTrace(t, 80)
	ps := oracle(t, tr)
	spec := alloc.ServerSpec{Cores: 16, MemContainers: 16, FMax: units.GHz(3.1), FMin: units.GHz(0.1)}

	epact, err := Run(testConfig(t, tr, &alloc.EPACT{Model: power.NTCServer()}, ps))
	if err != nil {
		t.Fatal(err)
	}
	coat, err := Run(testConfig(t, tr, alloc.NewCOAT(spec), ps))
	if err != nil {
		t.Fatal(err)
	}
	if epact.MeanActive <= coat.MeanActive {
		t.Errorf("EPACT mean active %.1f should exceed COAT %.1f", epact.MeanActive, coat.MeanActive)
	}
	if epact.TotalEnergy >= coat.TotalEnergy {
		t.Errorf("EPACT energy %v should be below COAT %v", epact.TotalEnergy, coat.TotalEnergy)
	}
}

func TestRunValidation(t *testing.T) {
	tr := testTrace(t, 10)
	ps := oracle(t, tr)
	spec := alloc.ServerSpec{Cores: 16, MemContainers: 16, FMax: units.GHz(3.1), FMin: units.GHz(0.1)}
	good := testConfig(t, tr, alloc.NewCOAT(spec), ps)

	bad := good
	bad.Trace = nil
	if _, err := Run(bad); err == nil {
		t.Error("nil trace accepted")
	}
	bad = good
	bad.Policy = nil
	if _, err := Run(bad); err == nil {
		t.Error("nil policy accepted")
	}
	bad = good
	bad.Predictions = nil
	if _, err := Run(bad); err == nil {
		t.Error("nil predictions accepted")
	}
	bad = good
	bad.EvalDays = 5
	if _, err := Run(bad); err == nil {
		t.Error("eval beyond predictions accepted")
	}
}

func TestSeriesAccessors(t *testing.T) {
	tr := testTrace(t, 40)
	ps := oracle(t, tr)
	spec := alloc.ServerSpec{Cores: 16, MemContainers: 16, FMax: units.GHz(3.1), FMin: units.GHz(0.1)}
	res, err := Run(testConfig(t, tr, alloc.NewCOAT(spec), ps))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.EnergyPerSlotMJ()) != len(res.Slots) ||
		len(res.ViolationsPerSlot()) != len(res.Slots) ||
		len(res.ActiveServersPerSlot()) != len(res.Slots) {
		t.Error("series accessors disagree with slot count")
	}
}

func TestFixedFreqPolicyDeliversLessCapacity(t *testing.T) {
	// COAT-OPT's fixed cap means its servers cannot boost past the
	// planned frequency: for the same trace it must register at least
	// as many violations as a dynamic policy with the same packing.
	tr := testTrace(t, 60)
	ps := oracle(t, tr)
	spec := alloc.ServerSpec{Cores: 16, MemContainers: 16, FMax: units.GHz(3.1), FMin: units.GHz(0.1)}

	fixed, err := Run(testConfig(t, tr, alloc.NewCOATOPT(spec, units.GHz(1.9)), ps))
	if err != nil {
		t.Fatal(err)
	}
	// The same cap but with boost allowed (a COAT at 61% cap without
	// FixedFreq) must violate strictly less.
	flexible := &alloc.COAT{CapFrac: 1.9 / 3.1, PlannedFreq: units.GHz(1.9),
		CorrThreshold: 0.5, Label: "COAT-OPT-flexible"}
	flex, err := Run(testConfig(t, tr, flexible, ps))
	if err != nil {
		t.Fatal(err)
	}
	if fixed.TotalViol < flex.TotalViol {
		t.Errorf("fixed-cap violations %d below boost-capable %d", fixed.TotalViol, flex.TotalViol)
	}
	// With oracle predictions and 39%-of-capacity headroom, the
	// boost-capable variant should see none at all.
	if flex.TotalViol != 0 {
		t.Errorf("boost-capable variant violated %d times under oracle predictions", flex.TotalViol)
	}
}

func TestValidateChecksEveryPredictionRow(t *testing.T) {
	// Regression: validate used to check only Predictions.CPU[0], so a
	// short row further down (or a short memory row anywhere) would
	// slip through and panic mid-run when the slot loop sliced it.
	tr := testTrace(t, 10)
	spec := alloc.ServerSpec{Cores: 16, MemContainers: 16, FMax: units.GHz(3.1), FMin: units.GHz(0.1)}

	ps := oracle(t, tr)
	ps.CPU[3] = ps.CPU[3][:5]
	if _, err := Run(testConfig(t, tr, alloc.NewCOAT(spec), ps)); err == nil {
		t.Error("short CPU row 3 accepted")
	}

	ps = oracle(t, tr)
	ps.Mem[7] = ps.Mem[7][:5]
	if _, err := Run(testConfig(t, tr, alloc.NewCOAT(spec), ps)); err == nil {
		t.Error("short memory row 7 accepted")
	}

	ps = oracle(t, tr)
	ps.Mem = ps.Mem[:4]
	if _, err := Run(testConfig(t, tr, alloc.NewCOAT(spec), ps)); err == nil {
		t.Error("memory rows for only 4 of 10 VMs accepted")
	}
}

// TestValidateMemoDoesNotPinTraces: the validation memo must not keep
// a trace alive once nothing else references it — a long-lived
// process (the sweep daemon, a benchmark) replays many traces. The
// memo is keyed by the root trace: a run on a view records the root,
// never the view, and the entry lives while any view of the root does
// and is dropped once the root and all its views are collected.
func TestValidateMemoDoesNotPinTraces(t *testing.T) {
	spec := alloc.ServerSpec{Cores: 16, MemContainers: 16, FMax: units.GHz(3.1), FMin: units.GHz(0.1)}
	tr := testTrace(t, 4)
	view := tr.SubsetInto(new(trace.Trace), []int{3, 1}).SubsetInto(new(trace.Trace), []int{1})
	if view.Root() != tr {
		t.Fatal("a view of a view lost its root")
	}
	if _, err := Run(testConfig(t, view, alloc.NewCOAT(spec), oracle(t, view))); err != nil {
		t.Fatal(err)
	}
	wp := weak.Make(tr)
	if _, ok := validatedTraces.Load(wp); !ok {
		t.Fatal("the root of a validated view was not memoised")
	}
	if _, ok := validatedTraces.Load(weak.Make(view)); ok {
		t.Fatal("the memo holds a view's entry")
	}
	tr = nil
	runtime.GC()
	if wp.Value() == nil {
		t.Fatal("the root was collected while a view of it is alive")
	}
	if _, ok := validatedTraces.Load(wp); !ok {
		t.Fatal("the root's entry was dropped while a view of it is alive")
	}
	runtime.KeepAlive(view)
	view = nil
	for i := 0; i < 10 && wp.Value() != nil; i++ {
		runtime.GC()
	}
	if wp.Value() != nil {
		t.Fatal("the validation memo keeps a dropped trace alive")
	}
	// Cleanups run on their own goroutine after the collection.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, ok := validatedTraces.Load(wp); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the entry of a collected root was never dropped")
		}
	}
}

// TestEditedViewIsRejected: a view inherits its root's sample checks,
// not its shape. A view whose VMs slice was edited to hold a ragged VM,
// or that holds no VMs, still fails validation once the root is
// memoised.
func TestEditedViewIsRejected(t *testing.T) {
	tr := testTrace(t, 6)
	ps := oracle(t, tr)
	if _, err := Run(testConfig(t, tr, alloc.NewFFD(), ps)); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []func(vm *trace.VM){
		func(vm *trace.VM) { vm.CPU = vm.CPU[:len(vm.CPU)-1] },
		func(vm *trace.VM) { vm.Mem = append(vm.Mem[:len(vm.Mem):len(vm.Mem)], 0) },
	} {
		view := tr.SubsetInto(new(trace.Trace), []int{0, 1, 2, 3, 4, 5})
		ragged := *view.VMs[2]
		cut(&ragged)
		view.VMs[2] = &ragged
		_, err := Run(testConfig(t, view, alloc.NewFFD(), ps))
		if err == nil || !strings.Contains(err.Error(), "ragged") {
			t.Errorf("edited view with a ragged VM: err = %v, want a ragged-series error", err)
		}
	}
	empty := tr.SubsetInto(new(trace.Trace), nil)
	if _, err := Run(testConfig(t, empty, alloc.NewFFD(), &PredictionSet{})); err == nil ||
		!strings.Contains(err.Error(), "no VMs") {
		t.Errorf("empty view: err = %v, want a no-VMs error", err)
	}
}

func TestResidentSetsBoundsAreAnInvariant(t *testing.T) {
	// Regression: residentSets used to treat an out-of-range sample as
	// zero resident memory, silently under-billing migrations. The
	// bound is an invariant validate establishes, so breaking it must
	// surface as an error.
	tr := testTrace(t, 6)
	out := make([]float64, len(tr.VMs))
	for _, abs := range []int{-1, tr.Samples(), tr.Samples() + 100} {
		if err := residentSets(tr, abs, out); err == nil {
			t.Errorf("sample %d outside the %d-sample trace accepted", abs, tr.Samples())
		}
	}
	if err := residentSets(tr, tr.Samples()-1, out); err != nil {
		t.Fatalf("in-range sample rejected: %v", err)
	}
	for v, vm := range tr.VMs {
		want := vm.Mem[tr.Samples()-1] / 100 * float64(1<<30)
		if out[v] != want {
			t.Fatalf("VM %d resident set = %v, want %v", v, out[v], want)
		}
	}
}

// TestWindowedRunsConcatenate pins the StartSlot/NumSlots contract the
// epoch rebalancer depends on: under the paper-faithful transition
// model (the zero value), a full run equals the concatenation of any
// epoch windows covering the same period, with each window's closing
// active-server count carried into the next via InitialActiveServers.
func TestWindowedRunsConcatenate(t *testing.T) {
	tr := testTrace(t, 40)
	ps := oracle(t, tr)

	run := func(start, num, initial int) *Result {
		cfg := testConfig(t, tr, &alloc.EPACT{Model: power.NTCServer()}, ps)
		cfg.StartSlot, cfg.NumSlots = start, num
		cfg.InitialActiveServers = initial
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("window [%d,+%d): %v", start, num, err)
		}
		return res
	}

	full := run(0, 0, 0)
	if len(full.Slots) != 48 {
		t.Fatalf("full run has %d slots, want 48", len(full.Slots))
	}

	// Uneven windows: 5 + 19 + 24 = 48.
	var cat []SlotResult
	initial := 0
	for _, w := range []struct{ start, num int }{{0, 5}, {5, 19}, {24, 24}} {
		res := run(w.start, w.num, initial)
		if len(res.Slots) != w.num {
			t.Fatalf("window [%d,+%d) produced %d slots", w.start, w.num, len(res.Slots))
		}
		cat = append(cat, res.Slots...)
		initial = res.Slots[len(res.Slots)-1].ActiveServers
	}

	for i := range full.Slots {
		if full.Slots[i] != cat[i] {
			t.Fatalf("slot %d differs: full %+v, windowed %+v", i, full.Slots[i], cat[i])
		}
	}
}

func TestPoolCapViolations(t *testing.T) {
	// A tiny pool must register overflow violations.
	tr := testTrace(t, 60)
	ps := oracle(t, tr)
	spec := alloc.ServerSpec{Cores: 16, MemContainers: 16, FMax: units.GHz(3.1), FMin: units.GHz(0.1)}
	cfg := testConfig(t, tr, alloc.NewCOAT(spec), ps)
	cfg.MaxServers = 1
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalViol == 0 {
		t.Error("pool cap of 1 server produced no violations")
	}
}
