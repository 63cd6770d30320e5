package sweep

import (
	"encoding/json"
	"path/filepath"
	"testing"

	"repro/internal/sweep/cache"
)

// carbonGrid sweeps the grid-intensity-asymmetric triad: static
// uniform dispatch vs carbon-greedy, each with and without a
// follow-the-sun epoch rebalance. 4 scenarios.
func carbonGrid() Grid {
	return Grid{
		Policies:    []string{"EPACT"},
		VMs:         []int{24},
		MaxServers:  []int{24},
		HistoryDays: 1,
		EvalDays:    1,
		Seeds:       []int64{2018},
		Predictors:  []string{"oracle"},
		Topologies:  []string{"uniform@triad-carbon", "carbon-greedy@triad-carbon"},
		Rebalances:  []string{"off", "epoch:6@carbon-greedy"},
	}
}

// findRun locates the row for a topology/rebalance pair.
func findRun(t *testing.T, res *Results, topo, reb string) *RunResult {
	t.Helper()
	for i := range res.Runs {
		s := res.Runs[i].Scenario
		if s.Topology == topo && s.Rebalance == reb {
			return &res.Runs[i]
		}
	}
	t.Fatalf("no run for topology %q rebalance %q", topo, reb)
	return nil
}

// TestCarbonDispatchReducesFleetCarbon pins the headline carbon
// ordering on the triad-carbon fleet: carbon-greedy dispatch (fill the
// cleanest grid first) and the follow-the-sun epoch rebalance each
// report less operational carbon than static uniform dispatch, with
// every row pricing nonzero embodied carbon.
func TestCarbonDispatchReducesFleetCarbon(t *testing.T) {
	res, err := Run(carbonGrid(), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Failed(); err != nil {
		t.Fatal(err)
	}
	uniform := findRun(t, res, "uniform@triad-carbon", "off")
	greedy := findRun(t, res, "carbon-greedy@triad-carbon", "off")
	followSun := findRun(t, res, "uniform@triad-carbon", "epoch:6@carbon-greedy")

	for _, r := range res.Runs {
		if r.OperationalGCO2 <= 0 || r.EmbodiedGCO2 <= 0 {
			t.Errorf("%s: carbon columns %g/%g, want both positive",
				r.Scenario.ID(), r.OperationalGCO2, r.EmbodiedGCO2)
		}
	}
	if greedy.OperationalGCO2 >= uniform.OperationalGCO2 {
		t.Errorf("carbon-greedy op carbon %g >= uniform %g — dispatch does not optimize grams",
			greedy.OperationalGCO2, uniform.OperationalGCO2)
	}
	if followSun.OperationalGCO2 >= uniform.OperationalGCO2 {
		t.Errorf("follow-the-sun op carbon %g >= static uniform %g",
			followSun.OperationalGCO2, uniform.OperationalGCO2)
	}
	if followSun.CrossDCMigrations == 0 {
		t.Error("follow-the-sun rebalance moved no VMs — the epochs never re-ranked")
	}
}

// TestCarbonGridDeterministicAndCached wires the carbon rows into the
// golden CI contract every axis carries: byte-identical CSV across
// 1/4/8 workers, and a warm result store answering the whole grid
// without executing a scenario.
func TestCarbonGridDeterministicAndCached(t *testing.T) {
	res1, err := Run(carbonGrid(), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := res1.Failed(); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{4, 8} {
		resN, err := Run(carbonGrid(), Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if resN.CSV() != res1.CSV() {
			t.Errorf("%d-worker carbon CSV differs from 1-worker:\n%s\nvs\n%s",
				workers, resN.CSV(), res1.CSV())
		}
	}

	dir := t.TempDir()
	open := func() *cache.Store {
		store, err := cache.Open(filepath.Join(dir, "cache"), cache.ModeRW)
		if err != nil {
			t.Fatal(err)
		}
		return store
	}
	cold, err := Run(carbonGrid(), Options{Workers: 4, Cache: open()})
	if err != nil {
		t.Fatal(err)
	}
	if s := cold.Cache; s.Hits != 0 || s.Misses != 4 || s.Writes != 4 {
		t.Fatalf("cold stats = %+v, want 0/4/4", s)
	}
	warm, err := Run(carbonGrid(), Options{Workers: 4, Cache: open()})
	if err != nil {
		t.Fatal(err)
	}
	if s := warm.Cache; s.Hits != 4 || s.Misses != 0 {
		t.Fatalf("warm stats = %+v, want all hits", s)
	}
	if warm.CSV() != cold.CSV() {
		t.Errorf("warm carbon CSV differs:\n%s\nvs\n%s", warm.CSV(), cold.CSV())
	}
	for i := range warm.Runs {
		if !warm.Runs[i].Cached {
			t.Errorf("run %d not answered from the warm store", i)
		}
	}
}

// TestPowerModelAxisChangesPricingNotPlacement pins the power-model
// contract end to end through the engine: the tdp rows carry identical
// placement, violation and frequency columns to the ntc rows — only
// the energy (and therefore carbon) columns move, and the scenario
// identity separates the rows.
func TestPowerModelAxisChangesPricingNotPlacement(t *testing.T) {
	g := Grid{
		Policies:    []string{"EPACT"},
		VMs:         []int{24},
		MaxServers:  []int{24},
		HistoryDays: 1,
		EvalDays:    1,
		Seeds:       []int64{2018},
		Predictors:  []string{"oracle"},
		Topologies:  []string{"greedy-proportional@triad"},
		PowerModels: []string{"ntc", "tdp"},
	}
	res, err := Run(g, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Failed(); err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 2 {
		t.Fatalf("got %d rows, want 2 (ntc, tdp)", len(res.Runs))
	}
	var ntc, tdp *RunResult
	for i := range res.Runs {
		switch res.Runs[i].Scenario.PowerModel {
		case "ntc":
			ntc = &res.Runs[i]
		case "tdp":
			tdp = &res.Runs[i]
		}
	}
	if ntc == nil || tdp == nil {
		t.Fatal("missing a power-model row")
	}
	if ntc.Scenario.ID() == tdp.Scenario.ID() {
		t.Error("ntc and tdp rows share a scenario identity")
	}
	if ntc.Violations != tdp.Violations || ntc.PeakActive != tdp.PeakActive ||
		ntc.MeanActive != tdp.MeanActive || ntc.Migrations != tdp.Migrations ||
		ntc.Slots != tdp.Slots || ntc.MeanPlannedFreqGHz != tdp.MeanPlannedFreqGHz {
		t.Errorf("placement columns diverged between power models:\nntc: %+v\ntdp: %+v", ntc, tdp)
	}
	if ntc.TotalEnergyMJ == tdp.TotalEnergyMJ {
		t.Error("ntc and tdp priced identical energy — the axis is inert")
	}
	if ntc.OperationalGCO2 == tdp.OperationalGCO2 {
		t.Error("ntc and tdp priced identical operational carbon")
	}
	// Embodied carbon counts powered-on server-hours, which the axis
	// must not perturb.
	if ntc.EmbodiedGCO2 != tdp.EmbodiedGCO2 {
		t.Errorf("embodied carbon diverged: %g vs %g — placement moved",
			ntc.EmbodiedGCO2, tdp.EmbodiedGCO2)
	}

	// The same contract over both pricing axes, every policy, static
	// and rebalanced fleets, each row executed alone with the
	// allocation memo off: rows that differ only in transition or power
	// model carry identical placement columns. Migrations are counted
	// by the transition pricing, so the zero model reports none and
	// every nonzero model reports the same count.
	pg := pricingGrid()
	rn, err := NewRunner(pg)
	if err != nil {
		t.Fatal(err)
	}
	rn.memo = nil
	scens, err := Expand(pg)
	if err != nil {
		t.Fatal(err)
	}
	first := map[Scenario]RunResult{}
	firstPriced := map[Scenario]RunResult{}
	for _, s := range scens {
		r := rn.Exec(s)
		if r.Err != "" {
			t.Fatalf("%s: %s", s.ID(), r.Err)
		}
		k := s
		k.Transitions, k.PowerModel = "", ""
		ref, ok := first[k]
		if !ok {
			first[k] = r
			ref = r
		}
		if r.Violations != ref.Violations || r.MeanActive != ref.MeanActive ||
			r.PeakActive != ref.PeakActive || r.CrossDCMigrations != ref.CrossDCMigrations ||
			r.MeanPlannedFreqGHz != ref.MeanPlannedFreqGHz {
			t.Errorf("placement columns diverged between pricing siblings:\n%s: %+v\n%s: %+v",
				ref.Scenario.ID(), ref, s.ID(), r)
		}
		if s.Transitions == "none" {
			if r.Migrations != 0 {
				t.Errorf("%s: %d migrations under the zero transition model", s.ID(), r.Migrations)
			}
			continue
		}
		if p, ok := firstPriced[k]; !ok {
			firstPriced[k] = r
		} else if r.Migrations != p.Migrations {
			t.Errorf("migrations diverged between pricing siblings: %s: %d, %s: %d",
				p.Scenario.ID(), p.Migrations, s.ID(), r.Migrations)
		}
	}
}

// TestStaleV3EntriesNeverAnswerV4 pins the v3→v4 migration in the
// engine: rows persisted under the previous schema version
// ("sweep-result-v3", which had no power-model or carbon columns)
// never answer a v4 sweep — every scenario re-executes and is written
// back under the current version.
func TestStaleV3EntriesNeverAnswerV4(t *testing.T) {
	dir := t.TempDir()
	g := carbonGrid()

	res, err := Run(g, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Failed(); err != nil {
		t.Fatal(err)
	}

	rn, err := NewRunner(g)
	if err != nil {
		t.Fatal(err)
	}
	store, err := cache.Open(filepath.Join(dir, "cache"), cache.ModeRW)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Runs {
		key, ok := rn.CacheKeyForVersion(res.Runs[i].Scenario, "sweep-result-v3")
		if !ok {
			t.Fatal("scenario unexpectedly uncacheable")
		}
		row, err := json.Marshal(res.Runs[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Put(key, row); err != nil {
			t.Fatal(err)
		}
	}

	store2, err := cache.Open(filepath.Join(dir, "cache"), cache.ModeRW)
	if err != nil {
		t.Fatal(err)
	}
	rerun, err := Run(g, Options{Workers: 2, Cache: store2})
	if err != nil {
		t.Fatal(err)
	}
	if err := rerun.Failed(); err != nil {
		t.Fatal(err)
	}
	if s := rerun.Cache; s.Hits != 0 || s.Misses != 4 || s.Writes != 4 {
		t.Fatalf("v3-store stats = %+v, want 0 hits / 4 misses / 4 writes", s)
	}
	for i := range rerun.Runs {
		if rerun.Runs[i].Cached {
			t.Errorf("run %d answered from a v3 entry", i)
		}
	}

	// The same store now holds v4 rows alongside the stale v3 ones and
	// answers everything.
	store3, err := cache.Open(filepath.Join(dir, "cache"), cache.ModeRW)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Run(g, Options{Workers: 2, Cache: store3})
	if err != nil {
		t.Fatal(err)
	}
	if s := warm.Cache; s.Hits != 4 {
		t.Errorf("v4 warm stats = %+v, want 4 hits", s)
	}
}
