package sweep_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/sweep"
	"repro/internal/sweep/cache"
	"repro/internal/sweep/dist"
)

// fleetGrid is fleet-dist's shape at test scale: two policies on two
// three-DC fleets, static and under two epoch rebalancers. Every row
// keeps its population in one NTC DC per slot, so rows of one policy
// repeat each other's allocation calls.
func fleetGrid() sweep.Grid {
	return sweep.Grid{
		Policies:    []string{"EPACT", "COAT"},
		VMs:         []int{24},
		MaxServers:  []int{24},
		HistoryDays: 1,
		EvalDays:    1,
		Seeds:       []int64{2018},
		Predictors:  []string{"oracle"},
		Topologies:  []string{"greedy-proportional@triad", "carbon-greedy@triad-carbon"},
		Rebalances:  []string{"off", "epoch:4@greedy-proportional", "epoch:6@carbon-greedy"},
	}
}

// unmemoizedResults executes every scenario of g alone through a
// Runner with the allocation memo off, and assembles the rows into the
// Results sweep.Run would return.
func unmemoizedResults(t *testing.T, g sweep.Grid) *sweep.Results {
	t.Helper()
	rn, err := sweep.NewRunner(g)
	if err != nil {
		t.Fatal(err)
	}
	sweep.DisableMemo(rn)
	scens, err := sweep.Expand(g)
	if err != nil {
		t.Fatal(err)
	}
	res := &sweep.Results{Grid: rn.Grid(), Runs: make([]sweep.RunResult, len(scens))}
	for i, s := range scens {
		res.Runs[i] = rn.Exec(s)
	}
	if err := res.Failed(); err != nil {
		t.Fatal(err)
	}
	return res
}

// serialHits executes the rows a half-warm store misses (all rows when
// cold) one at a time on one memo-on Runner and returns its memo hits.
// Each distinct input is computed once whatever the concurrency, so
// every in-process sweep over the same rows must report this count.
func serialHits(t *testing.T, g sweep.Grid, halfWarm bool) int64 {
	t.Helper()
	rn, err := sweep.NewRunner(g)
	if err != nil {
		t.Fatal(err)
	}
	scens, err := sweep.Expand(g)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range scens {
		if halfWarm && i%2 == 0 {
			continue
		}
		if r := rn.Exec(s); r.Err != "" {
			t.Fatalf("%s: %s", s.ID(), r.Err)
		}
	}
	return rn.LoadStats().SharedPlacements
}

// halfWarmStore returns a read-write store holding every other row of
// res, starting with the first.
func halfWarmStore(t *testing.T, g sweep.Grid, res *sweep.Results) *cache.Store {
	t.Helper()
	store, err := cache.Open(filepath.Join(t.TempDir(), "cache"), cache.ModeRW)
	if err != nil {
		t.Fatal(err)
	}
	rn, err := sweep.NewRunner(g)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(res.Runs); i += 2 {
		r := &res.Runs[i]
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
	return store
}

// TestMemoizedRowsMatchUnmemoizedRows is the differential gate of the
// allocation memo: sweep.Run's CSV and JSON bytes at 1, 3 and 8
// workers, and dist.RunLocal's with 2 workers, equal those of the same
// rows executed one at a time with the memo off, cold and with half of
// the rows already in the result store.
func TestMemoizedRowsMatchUnmemoizedRows(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    sweep.Grid
	}{{"pricing", sweep.PricingGrid()}, {"fleet", fleetGrid()}} {
		t.Run(tc.name, func(t *testing.T) {
			want := unmemoizedResults(t, tc.g)
			wantCSV := want.CSV()
			wantJSON, err := want.JSON()
			if err != nil {
				t.Fatal(err)
			}
			check := func(label string, res *sweep.Results) {
				t.Helper()
				if got := res.CSV(); got != wantCSV {
					t.Errorf("%s: CSV differs from unmemoized rows:\n%s\nvs\n%s", label, got, wantCSV)
				}
				js, err := res.JSON()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(js, wantJSON) {
					t.Errorf("%s: JSON differs from unmemoized rows", label)
				}
			}
			for _, halfWarm := range []bool{false, true} {
				wantHits := serialHits(t, tc.g, halfWarm)
				t.Logf("halfWarm=%v: %d memo hits", halfWarm, wantHits)
				if wantHits == 0 {
					t.Fatalf("halfWarm=%v: no allocation call repeats; the gate would prove nothing", halfWarm)
				}
				var store *cache.Store
				for _, workers := range []int{1, 3, 8} {
					label := fmt.Sprintf("workers=%d halfWarm=%v", workers, halfWarm)
					opt := sweep.Options{Workers: workers}
					if halfWarm {
						opt.Cache = halfWarmStore(t, tc.g, want)
					}
					res, err := sweep.Run(tc.g, opt)
					if err != nil {
						t.Fatal(err)
					}
					check(label, res)
					if res.Load.SharedPlacements != wantHits {
						t.Errorf("%s: %d memo hits, want %d", label, res.Load.SharedPlacements, wantHits)
					}
					if halfWarm && res.Cache.Hits != int64((len(res.Runs)+1)/2) {
						t.Errorf("%s: %d cache hits, want %d", label, res.Cache.Hits, (len(res.Runs)+1)/2)
					}
				}
				if halfWarm {
					store = halfWarmStore(t, tc.g, want)
				}
				res, _, err := dist.RunLocal(context.Background(), tc.g, 2, dist.Options{Cache: store})
				if err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("dist halfWarm=%v", halfWarm), res)
			}
		})
	}
}

// TestLookaheadRowsMatchUnmemoizedRows extends the gate to a grid where
// idle workers allocate ahead: one EPACT row beside cheap rows at two
// workers, so the second worker finishes COAT and FFD and then computes
// EPACT's later slots. Bytes must equal the unmemoized rows, shared
// placements the serial count, and the lookahead count must be
// non-zero. Whether the helper gets in before EPACT ends depends on
// scheduling, so a run without lookahead is retried; the byte and
// count checks hold on every run.
func TestLookaheadRowsMatchUnmemoizedRows(t *testing.T) {
	g := sweep.Grid{
		Policies:    []string{"EPACT", "COAT", "FFD"},
		VMs:         []int{120},
		MaxServers:  []int{120},
		HistoryDays: 2,
		EvalDays:    2,
		Seeds:       []int64{2018},
		Predictors:  []string{"arima"},
	}
	want := unmemoizedResults(t, g)
	wantCSV := want.CSV()
	wantJSON, err := want.JSON()
	if err != nil {
		t.Fatal(err)
	}
	wantHits := serialHits(t, g, false)
	for attempt := 1; ; attempt++ {
		res, err := sweep.Run(g, sweep.Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.CSV(); got != wantCSV {
			t.Fatalf("CSV differs from unmemoized rows:\n%s\nvs\n%s", got, wantCSV)
		}
		js, err := res.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(js, wantJSON) {
			t.Fatal("JSON differs from unmemoized rows")
		}
		ld := res.Load
		if ld.SharedPlacements != wantHits {
			t.Errorf("%d memo hits, want %d", ld.SharedPlacements, wantHits)
		}
		if ld.LookaheadUsed > ld.LookaheadComputed {
			t.Errorf("%d lookahead entries used but only %d computed", ld.LookaheadUsed, ld.LookaheadComputed)
		}
		t.Logf("attempt %d: %d allocations computed ahead, %d used", attempt, ld.LookaheadComputed, ld.LookaheadUsed)
		if ld.LookaheadUsed > 0 {
			return
		}
		if attempt == 5 {
			t.Fatal("no lookahead allocation used in 5 runs")
		}
	}
}
