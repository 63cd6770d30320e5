package topology

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/alloc"
	"repro/internal/dcsim"
	"repro/internal/power"
	"repro/internal/trace"
	"repro/internal/units"
)

func testTrace(t *testing.T, seed int64, vms, days int) *trace.Trace {
	t.Helper()
	cfg := trace.DefaultConfig(seed)
	cfg.VMs = vms
	cfg.Days = days
	tr, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestParseSpec(t *testing.T) {
	cases := []struct {
		spec       string
		dispatcher string
		ref        string
		file       bool
	}{
		{"single", "", "single", false},
		{"triad", "", "triad", false},
		{"uniform@triad", "uniform", "triad", false},
		{"greedy-proportional@triad", "greedy-proportional", "triad", false},
		{"follow-the-load@fleet.json", "follow-the-load", "fleet.json", true},
		{"path/to/fleet.json", "", "path/to/fleet.json", true},
	}
	for _, c := range cases {
		s, err := ParseSpec(c.spec)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", c.spec, err)
			continue
		}
		if s.Dispatcher != c.dispatcher || s.Ref != c.ref || s.IsFile != c.file {
			t.Errorf("ParseSpec(%q) = %+v, want {%q %q %v}", c.spec, s, c.dispatcher, c.ref, c.file)
		}
		if s.String() != c.spec {
			t.Errorf("ParseSpec(%q).String() = %q, not a round trip", c.spec, s.String())
		}
	}

	for _, bad := range []string{"", "bogus", "warp@triad", "uniform@", "uniform@bogus"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted an invalid spec", bad)
		}
	}
}

func TestBuiltinFleetsLoadAndValidate(t *testing.T) {
	for _, name := range BuiltinFleets() {
		s, err := ParseSpec(name)
		if err != nil {
			t.Fatal(err)
		}
		f, err := s.Load()
		if err != nil {
			t.Fatalf("builtin %q: %v", name, err)
		}
		if err := f.Validate(); err != nil {
			t.Errorf("builtin %q invalid: %v", name, err)
		}
	}
	f, err := Spec{Ref: "triad"}.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.DCs) != 3 {
		t.Fatalf("triad has %d DCs, want 3", len(f.DCs))
	}
	// Heterogeneity: at least two server platforms and two PUE levels.
	if f.DCs[0].Server == f.DCs[2].Server {
		t.Error("triad DCs share one server platform; want heterogeneous")
	}
	if f.DCs[0].PUE == f.DCs[1].PUE {
		t.Error("triad DCs share one PUE; want heterogeneous")
	}
}

func TestFleetFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fleet.json")
	body := []byte(`{
		"name": "pair",
		"dispatcher": "follow-the-load",
		"dcs": [
			{"name": "a", "servers": 20, "pue": 1.2, "latency_ms": 5},
			{"name": "b", "servers": 10, "pue": 1.1, "server": "conventional", "latency_ms": 50}
		]
	}`)
	if err := os.WriteFile(path, body, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := ParseSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if f.Name != "pair" || f.Dispatcher != "follow-the-load" || len(f.DCs) != 2 {
		t.Fatalf("loaded fleet = %+v", f)
	}

	// The spec's dispatcher prefix overrides the file's.
	s2, err := ParseSpec("uniform@" + path)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := s2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if f2.Dispatcher != "uniform" {
		t.Errorf("dispatcher override = %q, want uniform", f2.Dispatcher)
	}

	// Fingerprint tracks content: editing the file changes it.
	fp1, err := s.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(body, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	fp2, err := s.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp1 == fp2 {
		t.Error("fingerprint unchanged after editing the fleet file")
	}

	// The exact string is pinned — it is a result-cache key ingredient —
	// and shipped content fingerprints like the file holding it.
	pinned := []byte(`{"name": "pinned", "dcs": [{"name": "a", "share": 1, "pue": 1.2}]}`)
	pinnedPath := filepath.Join(dir, "pinned.json")
	if err := os.WriteFile(pinnedPath, pinned, 0o644); err != nil {
		t.Fatal(err)
	}
	ps, err := ParseSpec(pinnedPath)
	if err != nil {
		t.Fatal(err)
	}
	want := "topology:file:" + pinnedPath + ":cbe0bd391f5c205b19e46f0692723c0c"
	if got, err := ps.Fingerprint(); err != nil || got != want {
		t.Errorf("fleet-file fingerprint from disk = %q, %v; want %q", got, err, want)
	}
	if got, err := ps.WithContent(pinned).Fingerprint(); err != nil || got != want {
		t.Errorf("fleet-file fingerprint from content = %q, %v; want %q", got, err, want)
	}

	// Unknown fields are typos, not extensions; a second value after
	// the fleet object is a paste error, not something to ignore.
	for i, content := range []string{
		`{"dcs": [{"name": "a", "serverss": 3}]}`,
		"{\"dcs\": [{\"name\": \"a\"}]}\n{\"dcs\": []}",
	} {
		bad := filepath.Join(dir, fmt.Sprintf("bad%d.json", i))
		if err := os.WriteFile(bad, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		sBad, err := ParseSpec(bad)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sBad.Load(); err == nil {
			t.Errorf("fleet file %q loaded without error", content)
		}
	}
}

func TestValidateRejectsBadFleets(t *testing.T) {
	cases := []Fleet{
		{Name: "empty"},
		{Name: "noname", DCs: []DCSpec{{}}},
		{Name: "dup", DCs: []DCSpec{{Name: "a"}, {Name: "a"}}},
		{Name: "pue", DCs: []DCSpec{{Name: "a", PUE: 0.5}}},
		{Name: "neg", DCs: []DCSpec{{Name: "a", Servers: -1}}},
		{Name: "srv", DCs: []DCSpec{{Name: "a", Server: "quantum"}}},
		{Name: "disp", Dispatcher: "warp", DCs: []DCSpec{{Name: "a"}}},
		// Every DC drained by an explicit share 0: nowhere to dispatch.
		{Name: "alldrained", DCs: []DCSpec{
			{Name: "a", ShareSet: true}, {Name: "b", ShareSet: true}}},
	}
	for _, f := range cases {
		if err := f.Validate(); err == nil {
			t.Errorf("fleet %q validated despite being invalid", f.Name)
		}
	}
}

func TestResolveSplitsPoolByShare(t *testing.T) {
	f, err := Spec{Ref: "triad"}.Load()
	if err != nil {
		t.Fatal(err)
	}
	r := f.Resolve(600)
	sizes := map[string]int{}
	total := 0
	for _, dc := range r.DCs {
		sizes[dc.Name] = dc.Servers
		total += dc.Servers
	}
	if total != 600 {
		t.Fatalf("resolved pools sum to %d, want 600 (%v)", total, sizes)
	}
	if sizes["core"] != 300 || sizes["metro"] != 180 || sizes["edge"] != 120 {
		t.Errorf("triad split = %v, want 300/180/120", sizes)
	}

	// Largest-remainder: a pool that does not divide evenly still sums
	// exactly and deterministically.
	r = f.Resolve(7)
	total = 0
	for _, dc := range r.DCs {
		if dc.Servers < 1 {
			t.Errorf("DC %s resolved to %d servers, want >= 1", dc.Name, dc.Servers)
		}
		total += dc.Servers
	}
	if total != 7 {
		t.Errorf("resolved pools sum to %d, want 7", total)
	}

	// MaxServers 0 keeps relative DCs unbounded.
	for _, dc := range f.Resolve(0).DCs {
		if dc.Servers != 0 {
			t.Errorf("unbounded fleet resolved DC %s to %d servers", dc.Name, dc.Servers)
		}
	}

	// Absolute pools are untouched.
	abs := Fleet{Name: "abs", DCs: []DCSpec{{Name: "a", Servers: 42}, {Name: "b"}}}
	got := abs.Resolve(100)
	if got.DCs[0].Servers != 42 || got.DCs[1].Servers != 58 {
		t.Errorf("mixed resolve = %d/%d, want 42/58", got.DCs[0].Servers, got.DCs[1].Servers)
	}

	// Skewed shares never round a DC down to 0 servers — resolved 0
	// means "unbounded" downstream, which would silently lift the
	// fleet's pool cap. The pool still sums exactly.
	skew := Fleet{Name: "skew", DCs: []DCSpec{
		{Name: "big", Share: 0.9},
		{Name: "s1", Share: 0.05},
		{Name: "s2", Share: 0.05},
	}}
	got = skew.Resolve(10)
	total = 0
	for _, dc := range got.DCs {
		if dc.Servers < 1 {
			t.Errorf("skewed resolve gave DC %s %d servers; 0 would mean unbounded", dc.Name, dc.Servers)
		}
		total += dc.Servers
	}
	if total != 10 || got.DCs[0].Servers != 8 {
		t.Errorf("skewed resolve = %d/%d/%d (total %d), want 8/1/1",
			got.DCs[0].Servers, got.DCs[1].Servers, got.DCs[2].Servers, total)
	}
}

// assertPartition checks the dispatch partition property: every VM in
// exactly one DC, lists ascending.
func assertPartition(t *testing.T, asg Assignment, vms int) {
	t.Helper()
	seen := map[int]bool{}
	for i, idxs := range asg {
		for j, v := range idxs {
			if j > 0 && idxs[j-1] >= v {
				t.Fatalf("DC %d VM list not ascending: %v", i, idxs)
			}
			if seen[v] {
				t.Fatalf("VM %d dispatched twice", v)
			}
			seen[v] = true
		}
	}
	if len(seen) != vms {
		t.Fatalf("dispatched %d VMs, want %d", len(seen), vms)
	}
}

func TestDispatchPartitions(t *testing.T) {
	tr := testTrace(t, 1, 60, 1)
	f, err := Spec{Ref: "triad"}.Load()
	if err != nil {
		t.Fatal(err)
	}
	for _, disp := range DispatcherNames() {
		f.Dispatcher = disp
		asg, err := Dispatch(f.Resolve(60), tr, 0)
		if err != nil {
			t.Fatalf("%s: %v", disp, err)
		}
		assertPartition(t, asg, 60)
	}
}

func TestUniformDispatchTracksShares(t *testing.T) {
	tr := testTrace(t, 1, 100, 1)
	f := Fleet{Name: "pair", DCs: []DCSpec{
		{Name: "big", Share: 0.75},
		{Name: "small", Share: 0.25},
	}}
	asg, err := Dispatch(f, tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(asg[0]) != 75 || len(asg[1]) != 25 {
		t.Errorf("uniform split = %d/%d, want 75/25", len(asg[0]), len(asg[1]))
	}
	// Interleaved, not contiguous: the small DC hosts some early VM.
	if len(asg[1]) > 0 && asg[1][0] >= 50 {
		t.Errorf("uniform dispatch is contiguous (small DC starts at VM %d)", asg[1][0])
	}
}

func TestGreedyProportionalFillsNTCFirst(t *testing.T) {
	tr := testTrace(t, 1, 40, 1)
	f := Fleet{Name: "mix", Dispatcher: "greedy-proportional", DCs: []DCSpec{
		{Name: "conv", Servers: 100, Server: "conventional"},
		{Name: "ntc", Servers: 2}, // capacity 2×16 = 32 VMs
	}}
	asg, err := Dispatch(f, tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	assertPartition(t, asg, 40)
	// The NTC DC (more proportional) fills to capacity first; the
	// remaining 8 VMs overflow to the conventional site.
	if len(asg[1]) != 32 || len(asg[0]) != 8 {
		t.Errorf("greedy split = ntc:%d conv:%d, want 32/8", len(asg[1]), len(asg[0]))
	}
}

// TestGreedyProportionalSeesStaticPowerOverrides: a heavier static
// platform makes a DC less proportional, so it must rank below an
// otherwise identical DC — the override participates in the score.
func TestGreedyProportionalSeesStaticPowerOverrides(t *testing.T) {
	tr := testTrace(t, 1, 20, 1)
	f := Fleet{Name: "static", Dispatcher: "greedy-proportional", DCs: []DCSpec{
		{Name: "heavy", Servers: 100, StaticPowerW: 45},
		{Name: "light", Servers: 100},
	}}
	asg, err := Dispatch(f, tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	assertPartition(t, asg, 20)
	if len(asg[1]) != 20 {
		t.Errorf("greedy filled heavy=%d light=%d; the 15 W site outranks the 45 W site",
			len(asg[0]), len(asg[1]))
	}
}

// TestFollowTheLoadObservesHistoryOnly: dispatch must rank VMs by the
// history window, never peeking at evaluation-period load.
func TestFollowTheLoadObservesHistoryOnly(t *testing.T) {
	const n = trace.SamplesPerDay
	series := func(hist, eval float64) []float64 {
		out := make([]float64, 2*n)
		for i := 0; i < n; i++ {
			out[i], out[n+i] = hist, eval
		}
		return out
	}
	tr := &trace.Trace{Interval: trace.DefaultInterval, VMs: []*trace.VM{
		{ID: 0, CPU: series(100, 0), Mem: make([]float64, 2*n)},
		{ID: 1, CPU: series(0, 100), Mem: make([]float64, 2*n)},
	}}
	f := Fleet{Name: "peek", Dispatcher: "follow-the-load", DCs: []DCSpec{
		{Name: "near", LatencyMs: 1},
		{Name: "far", LatencyMs: 100},
	}}

	// History window: VM0 is the observed-heavy VM and takes the near
	// site; VM1 looks idle and balances onto the far site.
	asg, err := Dispatch(f, tr, n)
	if err != nil {
		t.Fatal(err)
	}
	assertPartition(t, asg, 2)
	if len(asg[0]) != 1 || asg[0][0] != 0 || len(asg[1]) != 1 || asg[1][0] != 1 {
		t.Errorf("history-window dispatch = near:%v far:%v, want near:[0] far:[1]", asg[0], asg[1])
	}

	// Full-trace means (the oracle view) would place both VMs near —
	// the window is what keeps the future out of the decision.
	asg, err = Dispatch(f, tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(asg[0]) != 2 {
		t.Errorf("full-window dispatch = near:%v far:%v; expected both near (the distinction under test)",
			asg[0], asg[1])
	}
}

func TestFollowTheLoadPrefersLowLatency(t *testing.T) {
	tr := testTrace(t, 1, 90, 1)
	f := Fleet{Name: "lat", Dispatcher: "follow-the-load", DCs: []DCSpec{
		{Name: "far", LatencyMs: 100},
		{Name: "near", LatencyMs: 5},
	}}
	asg, err := Dispatch(f, tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	assertPartition(t, asg, 90)
	if len(asg[1]) <= len(asg[0]) {
		t.Errorf("follow-the-load sent %d VMs near vs %d far; want the low-latency DC to attract more",
			len(asg[1]), len(asg[0]))
	}
}

func newTestPolicy(m power.Model) (alloc.Policy, error) {
	return &alloc.EPACT{Model: m}, nil
}

// replayDC steps a plain dcsim replay of the VMs idxs of cfg's trace,
// in that order, on dc's native server from slot start with initial
// servers already on, as the fleet runs that DC, and returns the steps.
func replayDC(t *testing.T, cfg Config, dc DCSpec, idxs []int, start, initial int) []dcsim.SlotResult {
	t.Helper()
	model, plat, err := dc.serverPlatform()
	if err != nil {
		t.Fatal(err)
	}
	pol, err := cfg.NewPolicy(model)
	if err != nil {
		t.Fatal(err)
	}
	tables, err := dcsim.NewTables(model, plat)
	if err != nil {
		t.Fatal(err)
	}
	var view dcView
	view.fill(cfg.Trace, cfg.Predictions, idxs)
	st, err := tables.NewStepper(dcsim.Config{
		Trace:                &view.tr,
		Predictions:          &view.pred,
		HistoryDays:          cfg.HistoryDays,
		EvalDays:             cfg.EvalDays,
		StartSlot:            start,
		InitialActiveServers: initial,
		Policy:               pol,
		MaxServers:           dc.Servers,
		Transitions:          cfg.Transitions,
	})
	if err != nil {
		t.Fatal(err)
	}
	var steps []dcsim.SlotResult
	for !st.Done() {
		slot, err := st.Step()
		if err != nil {
			t.Fatal(err)
		}
		steps = append(steps, slot)
	}
	return steps
}

// allVMs lists the VM indices of tr in order.
func allVMs(tr *trace.Trace) []int {
	idxs := make([]int, len(tr.VMs))
	for i := range idxs {
		idxs[i] = i
	}
	return idxs
}

// TestSingleFleetMatchesPlainSimulation pins the identity that lets
// the sweep engine route every scenario through the topology layer:
// the "single" fleet reproduces a plain dcsim run bit-for-bit.
func TestSingleFleetMatchesPlainSimulation(t *testing.T) {
	tr := testTrace(t, 2018, 30, 2)
	ps, err := dcsim.Predict(tr, nil, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := Spec{Ref: "single"}.Load()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Fleet:       fleet,
		Trace:       tr,
		Predictions: ps,
		HistoryDays: 1,
		EvalDays:    1,
		MaxServers:  30,
		NewPolicy:   newTestPolicy,
	}
	fres, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// The reference: a plain replay on the same server, folded here in
	// slot order (energy summed in joules from zero).
	steps := replayDC(t, cfg, fres.DCs[0].Spec, allVMs(tr), 0, 0)
	if len(fres.PerSlot) != len(steps) {
		t.Fatalf("single fleet has %d per-slot charges, plain replay %d steps", len(fres.PerSlot), len(steps))
	}
	var energy units.Energy
	var viol, peak, activeSum int
	var ghz float64
	for s, slot := range steps {
		energy += slot.Energy
		viol += slot.Violations
		peak = max(peak, slot.ActiveServers)
		activeSum += slot.ActiveServers
		ghz += slot.PlannedFreq.GHz()
		c := fres.PerSlot[s]
		if math.Float64bits(c.EnergyMJ) != math.Float64bits(slot.Energy.MJ()) ||
			c.ActiveServers != slot.ActiveServers || c.Violations != slot.Violations ||
			c.Migrations != slot.Migrations {
			t.Errorf("slot %d: single fleet charges %+v, plain step %+v", s, c, slot)
		}
	}
	n := float64(len(steps))
	if fres.TotalEnergyMJ != energy.MJ() {
		t.Errorf("single fleet energy %v != plain %v", fres.TotalEnergyMJ, energy.MJ())
	}
	if fres.Violations != viol || fres.PeakActive != peak ||
		fres.MeanActive != float64(activeSum)/n || fres.Slots != len(steps) {
		t.Errorf("single fleet aggregates diverge: %+v vs sim", fres)
	}
	if fres.MeanPlannedFreqGHz != ghz/n {
		t.Errorf("single fleet freq %v != plain %v", fres.MeanPlannedFreqGHz, ghz/n)
	}
	if len(fres.DCs) != 1 || fres.DCs[0].VMs != 30 {
		t.Errorf("single fleet per-DC rows = %+v", fres.DCs)
	}
}

// TestFleetRunConservesVMsAndEnergy checks fleet accounting: per-DC
// VMs partition the population, facility energy is the PUE-weighted
// sum, and the EP score is within range.
func TestFleetRunConservesVMsAndEnergy(t *testing.T) {
	tr := testTrace(t, 7, 48, 2)
	ps, err := dcsim.Predict(tr, nil, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, disp := range DispatcherNames() {
		fleet, err := Spec{Dispatcher: disp, Ref: "triad"}.Load()
		if err != nil {
			t.Fatal(err)
		}
		fres, err := Run(Config{
			Fleet:       fleet,
			Trace:       tr,
			Predictions: ps,
			HistoryDays: 1,
			EvalDays:    1,
			MaxServers:  48,
			NewPolicy:   newTestPolicy,
		})
		if err != nil {
			t.Fatalf("%s: %v", disp, err)
		}
		vms, energy, viol := 0, 0.0, 0
		for _, dc := range fres.DCs {
			vms += dc.VMs
			energy += dc.EnergyMJ
			viol += dc.Violations
			if dc.VMs > 0 && dc.EnergyMJ != dc.ITEnergyMJ*dc.Spec.PUE {
				t.Errorf("%s: DC %s facility energy %v != IT %v × PUE %v",
					disp, dc.Spec.Name, dc.EnergyMJ, dc.ITEnergyMJ, dc.Spec.PUE)
			}
		}
		if vms != 48 {
			t.Errorf("%s: per-DC VMs sum to %d, want 48", disp, vms)
		}
		if energy != fres.TotalEnergyMJ {
			t.Errorf("%s: per-DC energies sum to %v, fleet says %v", disp, energy, fres.TotalEnergyMJ)
		}
		if viol != fres.Violations {
			t.Errorf("%s: per-DC violations sum to %d, fleet says %d", disp, viol, fres.Violations)
		}
		if fres.EPScore < 0 || fres.EPScore > 1 {
			t.Errorf("%s: EP score %v outside [0,1]", disp, fres.EPScore)
		}
		if fres.TotalEnergyMJ <= 0 {
			t.Errorf("%s: fleet consumed no energy", disp)
		}
	}
}

// TestZeroShareDCIsNeverStarved pins the zero-share edge case: a DC
// whose spec leaves Share at 0 gets the documented default of 1 — it
// participates in dispatch and pool resolution like an explicit
// share-1 DC, and is never silently starved (or, worse, divided by).
func TestZeroShareDCIsNeverStarved(t *testing.T) {
	tr := testTrace(t, 3, 40, 1)
	f := Fleet{Name: "pair", DCs: []DCSpec{
		{Name: "zero"}, // Share 0 -> defaults to 1
		{Name: "one", Share: 1},
	}}

	for _, disp := range DispatcherNames() {
		f.Dispatcher = disp
		asg, err := Dispatch(f.Resolve(40), tr, 0)
		if err != nil {
			t.Fatalf("%s: %v", disp, err)
		}
		assertPartition(t, asg, 40)
		if len(asg[0]) == 0 {
			t.Errorf("%s: zero-share DC received no VMs", disp)
		}
	}

	// Uniform dispatch treats the defaulted share as equal weight.
	f.Dispatcher = "uniform"
	asg, err := Dispatch(f, tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(asg[0]) != 20 || len(asg[1]) != 20 {
		t.Errorf("uniform split with a defaulted share = %d/%d, want 20/20", len(asg[0]), len(asg[1]))
	}

	// Pool resolution gives the zero-share DC its equal half too.
	r := f.Resolve(40)
	if r.DCs[0].Servers != 20 || r.DCs[1].Servers != 20 {
		t.Errorf("resolved pools = %d/%d, want 20/20", r.DCs[0].Servers, r.DCs[1].Servers)
	}
}

// TestExplicitZeroShareDrainsDC pins the presence-tracking fix: a
// fleet file saying `"share": 0` means a drained DC, not the default
// weight 1 that used to clobber it. Every dispatcher must leave the
// drained DC empty while still partitioning the whole population.
func TestExplicitZeroShareDrainsDC(t *testing.T) {
	tr := testTrace(t, 5, 40, 1)
	f := Fleet{Name: "drainedpair", DCs: []DCSpec{
		{Name: "drained", Share: 0, ShareSet: true},
		{Name: "a", Share: 1},
		{Name: "b", Share: 1, LatencyMs: 25},
	}}
	for _, disp := range DispatcherNames() {
		f.Dispatcher = disp
		asg, err := Dispatch(f.Resolve(40), tr, trace.SamplesPerDay/2)
		if err != nil {
			t.Fatalf("%s: %v", disp, err)
		}
		assertPartition(t, asg, 40)
		if len(asg[0]) != 0 {
			t.Errorf("%s: drained DC received %d VMs, want 0", disp, len(asg[0]))
		}
		if len(asg[1]) == 0 && len(asg[2]) == 0 {
			t.Errorf("%s: live DCs received nothing", disp)
		}
	}
}

// TestShareZeroSurvivesJSON pins the decode side of the fix: an
// explicit `"share": 0` is recorded as set and survives
// normalisation, while an absent share still defaults to 1.
func TestShareZeroSurvivesJSON(t *testing.T) {
	f, err := ParseFleetJSON([]byte(
		`{"name":"f","dcs":[{"name":"drained","share":0},{"name":"live"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if !f.DCs[0].ShareSet || f.DCs[0].Share != 0 {
		t.Errorf("explicit share 0 decoded as {Share: %g, ShareSet: %v}, want {0, true}",
			f.DCs[0].Share, f.DCs[0].ShareSet)
	}
	if f.DCs[1].ShareSet {
		t.Error("absent share decoded as explicitly set")
	}
	n := f.normalized()
	if n.DCs[0].Share != 0 {
		t.Errorf("normalisation clobbered the explicit zero share to %g", n.DCs[0].Share)
	}
	if n.DCs[1].Share != 1 {
		t.Errorf("absent share normalised to %g, want the default 1", n.DCs[1].Share)
	}
	if err := f.Validate(); err != nil {
		t.Errorf("fleet with one drained and one live DC must validate, got: %v", err)
	}
}

// TestParseFleetJSONLinesInsideDCEntries pins the line an error inside
// a DC entry reports: the line of the failing member, not the end of
// the document or an offset counted from the entry's own start. Each
// fleet's second DC opens on line 4 and breaks on line 5; the same
// inputs seed FuzzParseFleetJSON.
func TestParseFleetJSONLinesInsideDCEntries(t *testing.T) {
	fleet := func(bad string) string {
		return "{\"name\": \"f\",\n \"dcs\": [\n  {\"name\": \"a\"},\n  {\"name\": \"b\",\n   " +
			bad + "},\n  {\"name\": \"c\"}\n]}\n"
	}
	cases := []struct {
		name, bad, want string
	}{
		{"unknown field", `"bogus": 1`, `unknown field "bogus"`},
		{"short profile", `"grid_intensity": [1, 2, 3]`, "want 24"},
		{"string share", `"share": "x"`, "cannot unmarshal string"},
		{"not the first member", `"pue": 1.1, "shares": 1`, `unknown field "shares"`},
	}
	for _, c := range cases {
		_, err := ParseFleetJSON([]byte(fleet(c.bad)))
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.HasPrefix(err.Error(), "parsing fleet (line 5): ") || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q, want line 5 and %q", c.name, err, c.want)
		}
	}
	// An entry that is not an object reports the line it starts on.
	_, err := ParseFleetJSON([]byte("{\"name\": \"f\",\n \"dcs\": [\n  {\"name\": \"a\"},\n  7\n]}\n"))
	if err == nil || !strings.HasPrefix(err.Error(), "parsing fleet (line 4): ") {
		t.Errorf("non-object entry: error %v, want line 4", err)
	}
}

// TestResolveExcludesDrainedDCFromPool pins pool resolution: a
// drained relative DC gets no slice of the fleet pool and must not
// claim the one-server floor (which would silently turn share 0 into
// a running server).
func TestResolveExcludesDrainedDCFromPool(t *testing.T) {
	f := Fleet{Name: "x", DCs: []DCSpec{
		{Name: "drained", ShareSet: true},
		{Name: "a", Share: 3},
		{Name: "b", Share: 1},
	}}
	r := f.Resolve(40)
	if r.DCs[0].Servers != 0 {
		t.Errorf("drained DC resolved to %d servers, want 0", r.DCs[0].Servers)
	}
	if r.DCs[1].Servers != 30 || r.DCs[2].Servers != 10 {
		t.Errorf("live pools = %d/%d, want 30/10", r.DCs[1].Servers, r.DCs[2].Servers)
	}
}

// TestFollowTheLoadSingleDC pins the degenerate follow-the-load
// fleet: with one datacenter there is nothing to balance — every VM
// lands in it, in ascending ID order (the canonical replay order),
// exactly like the uniform dispatcher on the same fleet.
func TestFollowTheLoadSingleDC(t *testing.T) {
	tr := testTrace(t, 4, 30, 1)
	f, err := Spec{Dispatcher: "follow-the-load", Ref: "single"}.Load()
	if err != nil {
		t.Fatal(err)
	}
	asg, err := Dispatch(f, tr, trace.SamplesPerDay)
	if err != nil {
		t.Fatal(err)
	}
	if len(asg) != 1 || len(asg[0]) != 30 {
		t.Fatalf("single-DC follow-the-load assignment = %v", asg)
	}
	for i, v := range asg[0] {
		if v != i {
			t.Fatalf("assignment not in ascending ID order at %d: %v", i, asg[0])
		}
	}

	uni, err := Spec{Dispatcher: "uniform", Ref: "single"}.Load()
	if err != nil {
		t.Fatal(err)
	}
	uasg, err := Dispatch(uni, tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(uasg[0]) != len(asg[0]) {
		t.Fatalf("uniform and follow-the-load disagree on a single DC: %v vs %v", uasg, asg)
	}
	for i := range asg[0] {
		if asg[0][i] != uasg[0][i] {
			t.Errorf("single-DC dispatchers disagree at %d: %d vs %d", i, asg[0][i], uasg[0][i])
		}
	}
}
