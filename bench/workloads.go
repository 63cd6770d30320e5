package main

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"strings"
	"time"

	"repro/internal/sweep"
)

// workers is the load every workload puts on the system: at most two
// worker goroutines (and at most two HTTP connections on serve-mix),
// sized to a 2-core machine.
const workers = 2

// workload is one named set of inputs the benchmark runs.
type workload struct {
	name string
	why  string

	// grid is the scenario grid of a workload's batch runs and of its
	// traced composed passes, built from the workload seed.
	grid func(seed int64) sweep.Grid

	// nominal is the typical length of one cold run of grid on the
	// reference machine (a 2-core Xeon); it turns --seconds into a
	// fixed number of runs.
	nominal time.Duration

	measure func(rc *runCtx, w *workload) // tracing off: end-to-end metrics
	traced  func(rc *runCtx, w *workload) // the separate traced run: per-layer metrics
}

// workloads are the benchmark's workloads, in their default run order.
// Their reasons are restated in README.md; BENCHMARK.json carries the
// same names and reasons.
var workloads = []*workload{
	{
		name: "paper-week",
		why: "Paper default grid (EPACT/COAT/COAT-OPT, 600 VMs, ARIMA): the shared input build dominates, " +
			"so trace generation and forecasting work shows here and pricing-axis work does not.",
		grid:    paperWeekGrid,
		nominal: 2 * time.Second,
		measure: func(rc *runCtx, w *workload) { measureBatch(rc, w, sweepRep) },
		traced:  func(rc *runCtx, w *workload) { traceBatch(rc, w, rc.seconds) },
	},
	{
		name: "policy-grid",
		why: "All 6 policies x transitions x power models on one oracle trace: allocation and slot replay dominate " +
			"and half the rows differ only in pricing, so repricing and sort-key work show here.",
		grid:    policyGridGrid,
		nominal: 4 * time.Second,
		measure: func(rc *runCtx, w *workload) { measureBatch(rc, w, sweepRep) },
		traced:  func(rc *runCtx, w *workload) { traceBatch(rc, w, rc.seconds) },
	},
	{
		name: "fleet-dist",
		why: "Multi-DC fleets with epoch rebalancing through the dist coordinator and a result cache: dispatch, " +
			"rebalancing, carbon, the lease protocol and cache writes show here and nowhere else.",
		grid:    fleetDistGrid,
		nominal: 4500 * time.Millisecond, // the warm re-run included
		measure: func(rc *runCtx, w *workload) {
			csv := measureBatch(rc, w, distRep)
			checkInProcess(rc, w.grid(rc.seed), csv)
		},
		traced: func(rc *runCtx, w *workload) {
			traceDist(rc, w, traceBatch(rc, w, rc.seconds))
		},
	},
	{
		name: "serve-mix",
		why: "Synthetic stress mix on the live daemon, at chosen rather than observed rates: scrapes and steps " +
			"beside cold and warm what-ifs and forks, so a what-if that stalls the monitoring path shows here.",
		grid:    serveZooGrid,
		nominal: 1500 * time.Millisecond,
		measure: measureServe,
		traced:  traceServe,
	},
}

func lookupWorkload(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// paperWeekGrid is the paper's default grid: EPACT, COAT and COAT-OPT
// on 600 VMs and 600 servers, 7 history + 7 evaluated days, ARIMA
// predictions, the single-DC topology.
func paperWeekGrid(seed int64) sweep.Grid {
	return sweep.Grid{Seeds: []int64{seed}}.WithDefaults()
}

// policyGridGrid runs every policy under both transition models and
// both power models on one oracle trace: 24 scenarios sharing cheap
// inputs, half of them differing only in the pricing-only power model.
func policyGridGrid(seed int64) sweep.Grid {
	return sweep.Grid{
		Policies:    sweep.PolicyNames(),
		Seeds:       []int64{seed},
		Predictors:  []string{"oracle"},
		Transitions: []sweep.TransitionSpec{{Name: "none"}, {Name: "default"}},
		PowerModels: []string{"ntc", "tdp"},
	}.WithDefaults()
}

// fleetDistGrid runs two policies on two three-DC fleets, static and
// under two epoch rebalancers: 12 scenarios on one oracle trace.
func fleetDistGrid(seed int64) sweep.Grid {
	return sweep.Grid{
		Policies:   []string{"EPACT", "COAT"},
		Seeds:      []int64{seed},
		Predictors: []string{"oracle"},
		Topologies: []string{"greedy-proportional@triad", "carbon-greedy@triad-carbon"},
		Rebalances: []string{"off", "epoch:4@greedy-proportional", "epoch:6@carbon-greedy"},
	}.WithDefaults()
}

// serveBaseGrid is serve-mix's base scenario: the daemon's default
// session, session a, and the scenario every what-if delta applies to.
// Its trace is always pinnedSeed's, and the workload seed orders the
// requests only. On 300 VMs the trace sets what a what-if costs: the
// same request order had a cold median half as long again on seed
// 2018's trace as on seed 2019's, more than twice the regression
// bound, so a seeded trace would gate the trace, not the daemon.
func serveBaseGrid() sweep.Grid {
	return sweep.Grid{
		Policies:   []string{"EPACT"},
		VMs:        []int{300},
		MaxServers: []int{300},
		Seeds:      []int64{pinnedSeed},
		Topologies: []string{"uniform@triad"},
		Rebalances: []string{"epoch:4@greedy-proportional"},
	}.WithDefaults()
}

// serveZooGrid is every policy at serve-mix's base scenario: the
// scenarios serve-mix's traced run composes to split a cold what-if
// into layers. Like the base, it ignores the workload seed.
func serveZooGrid(int64) sweep.Grid {
	g := serveBaseGrid()
	g.Policies = sweep.PolicyNames()
	return g
}

// pinnedSeed is the seed the committed CSV digests were taken at.
const pinnedSeed = 2018

//go:embed testdata/*.sha256
var digestFiles embed.FS

// pinnedDigest returns the committed SHA-256 of a batch workload's CSV
// at pinnedSeed, or false when the workload has none.
func pinnedDigest(name string) (string, bool) {
	b, err := digestFiles.ReadFile("testdata/" + name + ".sha256")
	if err != nil {
		return "", false
	}
	return strings.TrimSpace(string(b)), true
}

// checkDigest compares a batch workload's CSV against its committed
// digest when the run uses the pinned seed.
func checkDigest(rc *runCtx, name, csv string) {
	want, ok := pinnedDigest(name)
	if !ok || rc.seed != pinnedSeed {
		return
	}
	sum := sha256.Sum256([]byte(csv))
	got := hex.EncodeToString(sum[:])
	rc.op(got == want, "%s: CSV digest at seed %d is %s, committed %s", name, pinnedSeed, got, want)
}
