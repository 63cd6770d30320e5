package topology

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/alloc"
	"repro/internal/dcsim"
	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/trace"
)

func TestParseRebalanceSpec(t *testing.T) {
	cases := []struct {
		spec string
		want RebalanceSpec
	}{
		{"", RebalanceSpec{}},
		{"off", RebalanceSpec{}},
		{"epoch:4", RebalanceSpec{EverySlots: 4}},
		{"epoch:12@greedy-proportional", RebalanceSpec{EverySlots: 12, Dispatcher: "greedy-proportional"}},
		{"epoch:1@follow-the-load", RebalanceSpec{EverySlots: 1, Dispatcher: "follow-the-load"}},
	}
	for _, c := range cases {
		got, err := ParseRebalanceSpec(c.spec)
		if err != nil {
			t.Errorf("ParseRebalanceSpec(%q): %v", c.spec, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseRebalanceSpec(%q) = %+v, want %+v", c.spec, got, c.want)
		}
		// The canonical string round-trips ("" canonicalises to "off").
		rt, err := ParseRebalanceSpec(got.String())
		if err != nil || rt != got {
			t.Errorf("round trip of %q via %q = %+v, %v", c.spec, got.String(), rt, err)
		}
	}
	for _, bad := range []string{"on", "epoch", "epoch:", "epoch:0", "epoch:-3", "epoch:x", "epoch:4@warp", "every:4"} {
		if _, err := ParseRebalanceSpec(bad); err == nil {
			t.Errorf("ParseRebalanceSpec(%q) accepted an invalid spec", bad)
		}
	}
}

// rebalanceConfig is the shared fleet-run shape of the rebalancer
// tests: 48 VMs, 1 history day, 1 evaluated day on the given fleet.
func rebalanceConfig(t *testing.T, fleetSpec string, reb RebalanceSpec) Config {
	t.Helper()
	tr := testTrace(t, 2018, 48, 2)
	ps, err := dcsim.Predict(tr, nil, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := ParseSpec(fleetSpec)
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Fleet:       fleet,
		Trace:       tr,
		Predictions: ps,
		HistoryDays: 1,
		EvalDays:    1,
		MaxServers:  48,
		NewPolicy:   newTestPolicy,
		Transitions: dcsim.DefaultTransitions(),
		Rebalance:   reb,
	}
}

// TestRebalanceSingleDCIsIdentity pins that `single` stays the
// bit-exact identity under any rebalance spec: one datacenter has
// nothing to rebalance, so it runs as static dispatch (one epoch).
func TestRebalanceSingleDCIsIdentity(t *testing.T) {
	static, err := Run(rebalanceConfig(t, "single", RebalanceSpec{}))
	if err != nil {
		t.Fatal(err)
	}
	reb, err := Run(rebalanceConfig(t, "single", RebalanceSpec{EverySlots: 4}))
	if err != nil {
		t.Fatal(err)
	}
	if static.TotalEnergyMJ != reb.TotalEnergyMJ || static.Violations != reb.Violations ||
		static.MeanActive != reb.MeanActive || static.CrossDCMigrations != 0 ||
		reb.CrossDCMigrations != 0 {
		t.Errorf("single-DC rebalance diverged from static: %+v vs %+v", reb, static)
	}
	if !reflect.DeepEqual(static.PerSlot, reb.PerSlot) {
		t.Error("single-DC rebalance changed the per-slot series")
	}
}

// TestRebalanceConsolidatesTowardGreedy is the tentpole's headline at
// the library level: a triad fleet statically dispatched uniform, but
// rebalanced onto the energy-proportional core every 4 slots, lands
// between static uniform (which it beats) and static
// greedy-proportional (which never pays for the uniform first epoch),
// and the moves are visible as cross-DC migrations with downtime
// charged as violation-samples.
func TestRebalanceConsolidatesTowardGreedy(t *testing.T) {
	static, err := Run(rebalanceConfig(t, "uniform@triad", RebalanceSpec{}))
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := Run(rebalanceConfig(t, "greedy-proportional@triad", RebalanceSpec{}))
	if err != nil {
		t.Fatal(err)
	}
	reb, err := Run(rebalanceConfig(t, "uniform@triad",
		RebalanceSpec{EverySlots: 4, Dispatcher: "greedy-proportional"}))
	if err != nil {
		t.Fatal(err)
	}

	if reb.TotalEnergyMJ >= static.TotalEnergyMJ {
		t.Errorf("rebalancing toward greedy-proportional did not lower energy: %.3f vs static %.3f MJ",
			reb.TotalEnergyMJ, static.TotalEnergyMJ)
	}
	if reb.TotalEnergyMJ <= greedy.TotalEnergyMJ {
		t.Errorf("rebalanced run (%.3f MJ) beat static greedy (%.3f MJ); it should pay for its uniform start",
			reb.TotalEnergyMJ, greedy.TotalEnergyMJ)
	}
	if reb.CrossDCMigrations == 0 {
		t.Error("rebalancing moved no VMs across DCs")
	}
	// Every cross-DC move serves its downtime as violation-samples.
	if want := reb.CrossDCMigrations * MigrationDowntimeSamples; reb.Violations < want {
		t.Errorf("violations %d < %d downtime samples from %d migrations",
			reb.Violations, want, reb.CrossDCMigrations)
	}
	// Migration energy shows up in the transition share.
	if reb.TransitionMJ <= 0 {
		t.Error("rebalanced run recorded no transition energy")
	}

	// Conservation: the final assignment still partitions the VMs and
	// per-DC facility energies sum to the fleet total.
	vms, energy, xdc := 0, 0.0, 0
	for _, dc := range reb.DCs {
		vms += dc.VMs
		energy += dc.EnergyMJ
		xdc += dc.CrossDCMigrations
	}
	if vms != 48 {
		t.Errorf("final per-DC VMs sum to %d, want 48", vms)
	}
	if math.Abs(energy-reb.TotalEnergyMJ) > 1e-9 {
		t.Errorf("per-DC energies sum to %v, fleet says %v", energy, reb.TotalEnergyMJ)
	}
	if xdc != reb.CrossDCMigrations {
		t.Errorf("per-DC cross-DC migrations sum to %d, fleet says %d", xdc, reb.CrossDCMigrations)
	}

	// Determinism: an identical rebalanced run reproduces everything.
	again, err := Run(rebalanceConfig(t, "uniform@triad",
		RebalanceSpec{EverySlots: 4, Dispatcher: "greedy-proportional"}))
	if err != nil {
		t.Fatal(err)
	}
	if again.TotalEnergyMJ != reb.TotalEnergyMJ || again.CrossDCMigrations != reb.CrossDCMigrations ||
		again.Violations != reb.Violations || again.LatencyWeightedViol != reb.LatencyWeightedViol {
		t.Errorf("two identical rebalanced runs diverged: %+v vs %+v", again, reb)
	}
}

// TestLatencyWeightedViolations pins the WAN QoS metric on both
// paths: per-DC weighted counts are violations × latency/ref and sum
// to the fleet metric, and a default-latency single DC reports the
// raw count unchanged.
func TestLatencyWeightedViolations(t *testing.T) {
	// Static triad path: reconstruct the weighting from the per-DC rows.
	res, err := Run(rebalanceConfig(t, "follow-the-load@triad", RebalanceSpec{}))
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for i, dc := range res.DCs {
		want := float64(dc.Violations) * res.Fleet.DCs[i].LatencyMs / WANLatencyRefMs
		if math.Abs(dc.LatencyWeightedViol-want) > 1e-9 {
			t.Errorf("DC %s weighted viol = %v, want %v", dc.Name, dc.LatencyWeightedViol, want)
		}
		sum += dc.LatencyWeightedViol
	}
	if math.Abs(res.LatencyWeightedViol-sum) > 1e-9 {
		t.Errorf("fleet weighted viol %v != per-DC sum %v", res.LatencyWeightedViol, sum)
	}

	// Single DC at the reference latency: weighted == raw.
	single, err := Run(rebalanceConfig(t, "single", RebalanceSpec{}))
	if err != nil {
		t.Fatal(err)
	}
	if single.LatencyWeightedViol != float64(single.Violations) {
		t.Errorf("single fleet weighted viol %v != raw %d", single.LatencyWeightedViol, single.Violations)
	}
}

// TestSeriesEPScoreAllZeroIsFullyProportional is the satellite
// regression: an energy series that never burned anything is the MOST
// proportional outcome (1), not the least (0) — only an empty series
// reports 0 (nothing to score). Tally.EPScore and its reference
// SeriesEPScore must agree on every case.
func TestSeriesEPScoreAllZeroIsFullyProportional(t *testing.T) {
	for _, c := range []struct {
		name   string
		series []float64
		want   float64
	}{
		{"all zero", []float64{0, 0, 0}, 1},
		{"empty", nil, 0},
		// Unchanged cases: flat non-zero is fully unproportional, a
		// series that idles to zero is fully proportional.
		{"flat", []float64{5, 5, 5}, 0},
		{"idle-to-peak", []float64{0, 5}, 1},
	} {
		if got := SeriesEPScore(c.series); got != c.want {
			t.Errorf("SeriesEPScore(%s) = %v, want %v", c.name, got, c.want)
		}
		tally := tallyOf(c.series)
		if got := tally.EPScore(); got != c.want {
			t.Errorf("Tally.EPScore(%s) = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestExplicitZeroStaticPowerSurvivesScenarioDefault is the satellite
// regression for the `"static_w": 0` clobber: a fleet file that
// deliberately sets a DC's static power to zero must keep it through
// Run's scenario-default materialisation — and actually run with a
// zero-static platform, not the model default.
func TestExplicitZeroStaticPowerSurvivesScenarioDefault(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	zeroPath := write("zero.json", `{"name": "zero", "dcs": [{"name": "a", "static_power_w": 0}]}`)
	plainPath := write("plain.json", `{"name": "plain", "dcs": [{"name": "a"}]}`)

	// Presence is tracked through parsing.
	s, err := ParseSpec(zeroPath)
	if err != nil {
		t.Fatal(err)
	}
	zf, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if !zf.DCs[0].StaticPowerSet || zf.DCs[0].StaticPowerW != 0 {
		t.Fatalf("explicit zero not tracked: %+v", zf.DCs[0])
	}
	// ...and its platform really has no static power.
	m, _, err := zf.DCs[0].serverPlatform()
	if err != nil {
		t.Fatal(err)
	}
	if m.Motherboard != 0 {
		t.Errorf("explicit-zero DC platform static power = %v, want 0", m.Motherboard)
	}

	run := func(fleet string) *FleetResult {
		cfg := rebalanceConfig(t, fleet, RebalanceSpec{})
		cfg.Transitions = dcsim.ZeroTransitions()
		cfg.StaticPowerW = 30 // the scenario default that used to clobber
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	zero, plain := run(zeroPath), run(plainPath)
	// The unset DC inherits the 30 W scenario default; the explicit
	// zero survives and burns strictly less.
	if zero.TotalEnergyMJ >= plain.TotalEnergyMJ {
		t.Errorf("explicit-zero-static fleet (%.3f MJ) should burn less than the 30 W default (%.3f MJ)",
			zero.TotalEnergyMJ, plain.TotalEnergyMJ)
	}
}

// TestExplicitZeroLatencySurvivesNormalisation closes the same
// falsy-zero presence bug for latency: a fleet file declaring a
// co-located DC with `"latency_ms": 0` must keep the zero through
// normalisation (not the 10 ms default) — its violations carry no
// WAN weight in the latency-weighted metric.
func TestExplicitZeroLatencySurvivesNormalisation(t *testing.T) {
	f, err := ParseFleetJSON([]byte(`{"name": "co", "dcs": [
		{"name": "local", "latency_ms": 0},
		{"name": "far", "latency_ms": 50},
		{"name": "defaulted"}
	]}`))
	if err != nil {
		t.Fatal(err)
	}
	if !f.DCs[0].LatencyMsSet || f.DCs[0].LatencyMs != 0 {
		t.Fatalf("explicit zero latency not tracked: %+v", f.DCs[0])
	}
	n := f.normalized()
	if n.DCs[0].LatencyMs != 0 {
		t.Errorf("explicit zero latency normalised to %v, want 0", n.DCs[0].LatencyMs)
	}
	if n.DCs[2].LatencyMs != 10 {
		t.Errorf("absent latency normalised to %v, want the 10 ms default", n.DCs[2].LatencyMs)
	}
	if w := latencyWeight(n.DCs[0].LatencyMs); w != 0 {
		t.Errorf("co-located DC violation weight = %v, want 0", w)
	}
}

// TestDCSimRejectsBadSlotWindows pins the window validation the
// rebalancer's per-epoch runs rely on: an out-of-range StartSlot /
// NumSlots is an error, never an index panic.
func TestDCSimRejectsBadSlotWindows(t *testing.T) {
	tr := testTrace(t, 8, 10, 2)
	ps, err := dcsim.Predict(tr, nil, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	model := power.NTCServer()
	tables, err := dcsim.NewTables(model, platform.NTCServer())
	if err != nil {
		t.Fatal(err)
	}
	base := dcsim.Config{
		Trace:       tr,
		Predictions: ps,
		HistoryDays: 1,
		EvalDays:    1,
		Policy:      &alloc.EPACT{Model: model},
	}
	for _, c := range []struct{ start, n, initial int }{
		{-1, 0, 0}, // negative start
		{0, 25, 0}, // window past the 24-slot day
		{24, 1, 0}, // start at the end
		{25, 0, 0}, // open window starting past the end
		{0, -2, 0}, // negative count
		{0, 0, -1}, // negative initial servers
	} {
		cfg := base
		cfg.StartSlot, cfg.NumSlots, cfg.InitialActiveServers = c.start, c.n, c.initial
		if _, err := tables.NewStepper(cfg); err == nil {
			t.Errorf("window (start=%d, n=%d, initial=%d) did not error", c.start, c.n, c.initial)
		}
	}
	// The valid tail window still runs.
	cfg := base
	cfg.StartSlot, cfg.NumSlots = 20, 4
	st, err := tables.NewStepper(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var slots []dcsim.SlotResult
	for !st.Done() {
		slot, err := st.Step()
		if err != nil {
			t.Fatal(err)
		}
		slots = append(slots, slot)
	}
	if len(slots) != 4 || slots[0].Slot != 20 {
		t.Errorf("tail window produced %d slots starting at %d, want 4 from 20",
			len(slots), slots[0].Slot)
	}
}

// TestFleetAggregationWithEmptyDC is the satellite coverage for the
// zero-assigned-VMs edge: a DC that hosts nothing must not skew the
// fleet means (MeanActive over slots, the VM-weighted planned
// frequency) or report phantom energy.
func TestFleetAggregationWithEmptyDC(t *testing.T) {
	tr := testTrace(t, 5, 20, 2)
	ps, err := dcsim.Predict(tr, nil, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Greedy-proportional on a two-DC fleet whose NTC site holds
	// everything: the conventional site stays empty.
	fleet := Fleet{Name: "lopsided", Dispatcher: "greedy-proportional", DCs: []DCSpec{
		{Name: "ntc", Servers: 50},
		{Name: "conv", Servers: 50, Server: "conventional"},
	}}
	cfg := Config{
		Fleet:       fleet,
		Trace:       tr,
		Predictions: ps,
		HistoryDays: 1,
		EvalDays:    1,
		NewPolicy:   newTestPolicy,
	}
	st, err := NewStepper(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for !st.Done() {
		if _, err := st.Step(); err != nil {
			t.Fatal(err)
		}
	}
	res, err := st.Result()
	if err != nil {
		t.Fatal(err)
	}
	var empty, full *DCRun
	var fullSpec DCSpec
	var fullVMs []int
	for i := range res.DCs {
		if res.DCs[i].VMs == 0 {
			empty = &res.DCs[i]
		} else {
			full, fullSpec, fullVMs = &res.DCs[i], res.Fleet.DCs[i], st.asg[i]
		}
	}
	if empty == nil || full == nil {
		t.Fatalf("expected one empty and one full DC, got %+v", res.DCs)
	}
	if empty.EnergyMJ != 0 || empty.Violations != 0 || empty.MeanActive != 0 || empty.PeakActive != 0 {
		t.Errorf("empty DC reports activity: %+v", empty)
	}
	// The fleet means are the full DC's — the empty site adds nothing
	// and, crucially, does not dilute the VM-weighted frequency.
	if res.MeanActive != full.MeanActive {
		t.Errorf("fleet MeanActive %v != hosting DC's %v", res.MeanActive, full.MeanActive)
	}
	// The hosting DC's mean cap frequency, from a plain replay of its
	// VMs in dispatch order.
	var ghz float64
	steps := replayDC(t, cfg, fullSpec, fullVMs, 0, 0)
	for _, slot := range steps {
		ghz += slot.PlannedFreq.GHz()
	}
	if mean := ghz / float64(len(steps)); res.MeanPlannedFreqGHz != mean {
		t.Errorf("fleet planned freq %v != hosting DC's %v", res.MeanPlannedFreqGHz, mean)
	}
	if res.TotalEnergyMJ != full.EnergyMJ {
		t.Errorf("fleet energy %v != hosting DC's %v", res.TotalEnergyMJ, full.EnergyMJ)
	}
}

// TestDispatchClampsOversizedHistoryWindow is the satellite coverage
// for historySamples beyond the trace: every dispatcher must clamp to
// the series it has, never panic, and match the full-trace dispatch.
func TestDispatchClampsOversizedHistoryWindow(t *testing.T) {
	tr := testTrace(t, 6, 30, 1)
	samples := tr.Samples()
	for _, disp := range DispatcherNames() {
		fleet, err := Spec{Dispatcher: disp, Ref: "triad"}.Load()
		if err != nil {
			t.Fatal(err)
		}
		fleet = fleet.Resolve(30)
		huge, err := Dispatch(fleet, tr, samples*10)
		if err != nil {
			t.Fatalf("%s with oversized window: %v", disp, err)
		}
		assertPartition(t, huge, 30)
		full, err := Dispatch(fleet, tr, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(huge, full) {
			t.Errorf("%s: oversized window dispatch differs from full-trace dispatch", disp)
		}
	}
}

// TestRebalanceEveryTraceUnchanged guards the rebalancer's input
// contract: epoch re-dispatch and migration pricing read the trace but
// never mutate it (DC simulations share it read-only).
func TestRebalanceEveryTraceUnchanged(t *testing.T) {
	cfg := rebalanceConfig(t, "uniform@triad", RebalanceSpec{EverySlots: 2, Dispatcher: "follow-the-load"})
	before := make([]float64, len(cfg.Trace.VMs[0].CPU))
	copy(before, cfg.Trace.VMs[0].CPU)
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, cfg.Trace.VMs[0].CPU) {
		t.Error("rebalanced run mutated the shared trace")
	}
}

// TestBadSampleInLastDCFailsRun: the trace is validated once, at its
// root, and per-DC views inherit that, so an out-of-range or NaN
// sample must still fail the run wherever it sits — here in a VM the
// fleet hosts in its last DC, at an evaluation sample, under static
// dispatch and under epoch rebalancing.
func TestBadSampleInLastDCFailsRun(t *testing.T) {
	for _, reb := range []RebalanceSpec{{}, {EverySlots: 4, Dispatcher: "greedy-proportional"}} {
		st, err := NewStepper(rebalanceConfig(t, "triad", reb))
		if err != nil {
			t.Fatal(err)
		}
		last := st.asg[len(st.asg)-1]
		if len(last) == 0 {
			t.Fatalf("%s: triad's last DC hosts no VM", reb)
		}
		v := last[len(last)-1]
		for _, bad := range []struct {
			name string
			set  func(vm *trace.VM, i int)
		}{
			{"cpu 150", func(vm *trace.VM, i int) { vm.CPU[i] = 150 }},
			{"mem NaN", func(vm *trace.VM, i int) { vm.Mem[i] = math.NaN() }},
		} {
			// A fresh trace: the memo has not seen it.
			cfg := rebalanceConfig(t, "triad", reb)
			bad.set(cfg.Trace.VMs[v], cfg.HistoryDays*trace.SamplesPerDay+5)
			if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "outside [0,100]") {
				t.Errorf("%s, %s in VM %d (last DC): err = %v, want a range error", reb, bad.name, v, err)
			}
		}
	}
}
