package sweep

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dcsim"
	"repro/internal/sweep/cache"
	"repro/internal/units"
)

// pricingGrid crosses both pricing-only axes (three transition models,
// one of them custom, and both power models) with every policy,
// single and multi-DC fleets, static and rebalanced: 144 scenarios in
// 24 placement groups of 6.
func pricingGrid() Grid {
	return Grid{
		Policies:    PolicyNames(),
		VMs:         []int{24},
		MaxServers:  []int{24},
		HistoryDays: 1,
		EvalDays:    1,
		Seeds:       []int64{2018},
		Predictors:  []string{"oracle"},
		Transitions: []TransitionSpec{
			{Name: "none"},
			{Name: "default"},
			{Name: "cheap-boot", Model: &dcsim.TransitionModel{
				ServerOnEnergy:         500 * units.Joule,
				ServerOffEnergy:        100 * units.Joule,
				MigrationEnergyPerByte: units.Energy(2e-9),
			}},
		},
		PowerModels: []string{"ntc", "tdp"},
		Topologies:  []string{"single", "greedy-proportional@triad"},
		Rebalances:  []string{"off", "epoch:4@greedy-proportional"},
	}
}

// unsharedResults executes every scenario of g alone through
// Runner.Exec, which never shares placements, and assembles the rows
// into the Results sweep.Run would return.
func unsharedResults(t *testing.T, g Grid) *Results {
	t.Helper()
	rn, err := NewRunner(g)
	if err != nil {
		t.Fatal(err)
	}
	scens, err := Expand(g)
	if err != nil {
		t.Fatal(err)
	}
	res := &Results{Grid: rn.Grid(), Runs: make([]RunResult, len(scens))}
	for i, s := range scens {
		res.Runs[i] = rn.Exec(s)
	}
	if err := res.Failed(); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSharedPlacementsMatchUnsharedRows is the differential gate of
// placement sharing: sweep.Run's CSV and JSON bytes equal those of
// the same rows executed one at a time without sharing, at 1 and 3
// workers, cold and with half of the rows already in the result store.
func TestSharedPlacementsMatchUnsharedRows(t *testing.T) {
	g := pricingGrid()
	want := unsharedResults(t, g)
	wantCSV := want.CSV()
	wantJSON, err := want.JSON()
	if err != nil {
		t.Fatal(err)
	}
	scens, err := Expand(g)
	if err != nil {
		t.Fatal(err)
	}
	groups := placementGroups(scens)
	if len(groups) != 24 || len(scens) != 144 {
		t.Fatalf("%d scenarios in %d placement groups, want 144 in 24", len(scens), len(groups))
	}

	for _, workers := range []int{1, 3} {
		for _, halfWarm := range []bool{false, true} {
			opt := Options{Workers: workers}
			wantShared := int64(len(scens) - len(groups))
			if halfWarm {
				opt.Cache = halfWarmStore(t, g, want)
				// Every group keeps three misses: one leader and two
				// followers.
				wantShared = int64(2 * len(groups))
			}
			res, err := Run(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.CSV(); got != wantCSV {
				t.Errorf("workers=%d halfWarm=%v: CSV differs from unshared rows:\n%s\nvs\n%s",
					workers, halfWarm, got, wantCSV)
			}
			js, err := res.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(js, wantJSON) {
				t.Errorf("workers=%d halfWarm=%v: JSON differs from unshared rows", workers, halfWarm)
			}
			if res.Load.SharedPlacements != wantShared {
				t.Errorf("workers=%d halfWarm=%v: %d rows shared a placement, want %d",
					workers, halfWarm, res.Load.SharedPlacements, wantShared)
			}
			if halfWarm && res.Cache.Hits != int64(len(scens)/2) {
				t.Errorf("workers=%d: %d cache hits, want %d", workers, res.Cache.Hits, len(scens)/2)
			}
		}
	}
}

// halfWarmStore returns a read-write store holding every other row
// of each placement group, starting with its first, so each group's
// leader is its second row.
func halfWarmStore(t *testing.T, g Grid, res *Results) *cache.Store {
	t.Helper()
	store, err := cache.Open(filepath.Join(t.TempDir(), "cache"), cache.ModeRW)
	if err != nil {
		t.Fatal(err)
	}
	rn, err := NewRunner(g)
	if err != nil {
		t.Fatal(err)
	}
	scens := make([]Scenario, len(res.Runs))
	for i := range res.Runs {
		scens[i] = res.Runs[i].Scenario
	}
	for _, grp := range placementGroups(scens) {
		for k := 0; k < len(grp); k += 2 {
			r := &res.Runs[grp[k]]
			key, ok := rn.CacheKey(r.Scenario)
			if !ok {
				t.Fatal("scenario unexpectedly uncacheable")
			}
			row, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			if err := store.Put(key, row); err != nil {
				t.Fatal(err)
			}
		}
	}
	return store
}

// TestPlacementReplayDivergenceFails pins the replay's loud failure:
// a replaying scenario whose policy calls do not follow the leader's
// log — more or fewer slots, policies, VMs, or another server spec —
// fails its row with an error instead of returning numbers.
func TestPlacementReplayDivergenceFails(t *testing.T) {
	g := Grid{
		Policies:    []string{"EPACT"},
		VMs:         []int{24},
		MaxServers:  []int{24},
		HistoryDays: 1,
		EvalDays:    2,
		Seeds:       []int64{2018},
		Predictors:  []string{"oracle"},
	}
	rn, err := NewRunner(g)
	if err != nil {
		t.Fatal(err)
	}
	scens, err := Expand(g)
	if err != nil {
		t.Fatal(err)
	}
	// A one-DC fleet on conventional servers: one policy, another
	// server spec than the leader's NTC pool.
	conventional := filepath.Join(t.TempDir(), "conventional.json")
	if err := os.WriteFile(conventional, []byte(`{"name": "conv", "dcs": [{"name": "c", "server": "conventional"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}

	leader := scens[0]
	log := &placementLog{}
	if r := runScenario(rn.ld, rn.grid, leader, log); r.Err != "" {
		t.Fatal(r.Err)
	}
	// The leader's own scenario replays cleanly.
	if r := runScenario(rn.ld, rn.grid, leader, &replayer{log: log}); r.Err != "" {
		t.Fatalf("faithful replay failed: %s", r.Err)
	}

	for _, tc := range []struct {
		name   string
		mutate func(*Scenario)
		want   string
	}{
		{"more-calls", func(s *Scenario) { s.EvalDays = 3 }, "called 49 times, the log holds 48"},
		{"fewer-calls", func(s *Scenario) { s.EvalDays = 1 }, "allocated 24 slots, the log holds 48"},
		{"more-policies", func(s *Scenario) { s.Topology = "uniform@triad" }, "policy 2 created, the log holds 1"},
		{"vm-count", func(s *Scenario) { s.VMs = 20 }, "got 20 VMs, the log holds 24"},
		{"server-spec", func(s *Scenario) { s.Topology = conventional }, "server spec"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := leader
			tc.mutate(&s)
			r := runScenario(rn.ld, rn.grid, s, &replayer{log: log})
			if r.Err == "" || !strings.Contains(r.Err, "placement replay") || !strings.Contains(r.Err, tc.want) {
				t.Fatalf("diverged replay: err %q, want a placement-replay error containing %q", r.Err, tc.want)
			}
			if r.TotalEnergyMJ != 0 || r.Run != nil {
				t.Errorf("diverged replay returned numbers: %+v", r)
			}
		})
	}
}

// TestTaskQueueHandsOutLedRowsFirst pins the pool's order: a led
// group's rows go out before new groups, so idle workers replay them
// while other groups wait, and take waits for running leaders before
// reporting the queue drained.
func TestTaskQueueHandsOutLedRowsFirst(t *testing.T) {
	q := newTaskQueue([][]int{{0, 1, 2}, {3}, {4, 5}})
	next := func() task {
		t.Helper()
		tk, ok := q.take()
		if !ok {
			t.Fatal("queue drained early")
		}
		return tk
	}
	if g := next().group; len(g) != 3 || g[0] != 0 {
		t.Fatalf("first task = group %v, want group 0", g)
	}
	if g := next().group; len(g) != 1 || g[0] != 3 {
		t.Fatalf("second task = group %v, want group 1", g)
	}
	log := &placementLog{}
	q.led([]task{{row: 1, log: log}, {row: 2, log: log}})
	q.led(nil)
	for _, want := range []int{1, 2} {
		if tk := next(); tk.group != nil || tk.row != want || tk.log != log {
			t.Fatalf("task = %+v, want row %d replaying the log", tk, want)
		}
	}
	if g := next().group; len(g) != 2 || g[0] != 4 {
		t.Fatalf("task = group %v, want group 2", g)
	}

	// Group 2 is still leading: take waits for its rows.
	got := make(chan task)
	go func() {
		tk, ok := q.take()
		if !ok {
			close(got)
			return
		}
		got <- tk
	}()
	q.led([]task{{row: 5}})
	if tk, ok := <-got; !ok || tk.row != 5 || tk.log != nil {
		t.Fatalf("waiting take = %+v (ok %v), want row 5 unshared", tk, ok)
	}
	if tk, ok := q.take(); ok {
		t.Fatalf("drained queue handed out %+v", tk)
	}
}
