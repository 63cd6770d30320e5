package main

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/sweep"
	"repro/internal/sweep/cache"
	"repro/internal/sweep/dist"
)

// minReps is the fewest cold grid runs a batch workload measures,
// however short --seconds is: set-up and answer time are medians over
// the runs.
const minReps = 3

// repCount is how many units of nominal length fill budget, and at
// least min. The count is fixed by the budget rather than by the clock
// so every run of a workload does the same work whatever the machine's
// speed: the engine keeps every trace it has validated alive for the
// life of the process, so memory grows with each grid run and would
// otherwise track how many runs a fast or slow moment fitted in.
func repCount(budget, nominal time.Duration, min int) int {
	return max(min, int((budget+nominal/2)/nominal))
}

// repOut is one cold grid run of a batch workload.
type repOut struct {
	res      *sweep.Results
	wall     time.Duration // start of the run to its last row
	firstRow time.Duration // start of the run to its first completed row
	use      usage         // CPU time and heap allocation charged to the run
	executed int           // scenarios the run executed
}

// repFunc performs one cold grid run: nothing is shared with earlier
// runs, so input building and any cache writes happen every time.
type repFunc func(rc *runCtx, g sweep.Grid) (repOut, error)

// sweepRep runs the grid in process through sweep.Run with a cold
// Runner and two workers.
func sweepRep(_ *runCtx, g sweep.Grid) (repOut, error) {
	var first time.Duration
	u0 := readUsage()
	start := time.Now()
	res, err := sweep.Run(g, sweep.Options{Workers: workers, Progress: func(done, _ int, _ *sweep.RunResult) {
		if done == 1 {
			first = time.Since(start)
		}
	}})
	wall := time.Since(start)
	use := readUsage().sub(u0)
	if err != nil {
		return repOut{}, err
	}
	return repOut{res: res, wall: wall, firstRow: first, use: use, executed: len(res.Runs)}, nil
}

// distRep runs the grid through a dist coordinator with two in-process
// workers and a fresh read-write result store, which the run fills.
// A warm re-run against the same store then must answer every unit
// from it, execute nothing and emit identical bytes; that re-run is
// checked, not timed.
func distRep(rc *runCtx, g sweep.Grid) (repOut, error) {
	dir, err := os.MkdirTemp(rc.dir, "store-*")
	if err != nil {
		return repOut{}, err
	}
	defer os.RemoveAll(dir)
	store, err := cache.Open(dir, cache.ModeRW)
	if err != nil {
		return repOut{}, err
	}

	var first time.Duration // written under the coordinator's lock, read after Wait
	u0 := readUsage()
	start := time.Now()
	c, err := dist.NewCoordinator(g, dist.Options{Cache: store, Progress: func(done, _ int) {
		if first == 0 {
			first = time.Since(start)
		}
	}})
	if err != nil {
		return repOut{}, err
	}
	executed, err := work(rc.ctx, c, workers)
	if err != nil {
		return repOut{}, err
	}
	res, err := c.Wait(rc.ctx)
	if err != nil {
		return repOut{}, err
	}
	wall := time.Since(start)
	use := readUsage().sub(u0)
	if res.CacheErr != nil {
		rc.op(false, "fleet-dist: writing the result store: %v", res.CacheErr)
	}

	warm, err := dist.NewCoordinator(g, dist.Options{Cache: store})
	if err != nil {
		return repOut{}, err
	}
	warmExecuted, err := work(rc.ctx, warm, workers)
	if err != nil {
		return repOut{}, err
	}
	warmRes, err := warm.Wait(rc.ctx)
	if err != nil {
		return repOut{}, err
	}
	hits, same := warm.Stats().CacheHits, warmRes.CSV() == res.CSV()
	rc.op(warmExecuted == 0 && hits == len(res.Runs) && same,
		"fleet-dist: warm re-run executed %d scenarios with %d of %d cache hits (identical CSV: %v)",
		warmExecuted, hits, len(res.Runs), same)
	return repOut{res: res, wall: wall, firstRow: first, use: use, executed: executed}, nil
}

// work runs n dist workers against b until the sweep is done and
// returns how many units they executed between them.
func work(ctx context.Context, b dist.Backend, n int) (int, error) {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		executed int
		firstErr error
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k, err := dist.Work(ctx, b, dist.WorkerOptions{Name: workerName(i)})
			mu.Lock()
			defer mu.Unlock()
			executed += k
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}(i)
	}
	wg.Wait()
	return executed, firstErr
}

func workerName(i int) string { return fmt.Sprintf("bench-%d", i) }

// measureBatch measures a batch workload with tracing off: as many
// cold grid runs as fill --seconds at the workload's nominal run
// length (at least minReps), each timed right after a reference load
// and scaled by it, every run's rows checked for failures and its CSV
// for byte equality with the first run's. It returns the first run's
// CSV.
func measureBatch(rc *runCtx, w *workload, rep repFunc) string {
	g := w.grid(rc.seed)
	var (
		walls, firsts  []float64 // scaled to reference speed
		rawWalls, refs []float64 // as the clock read them
		use            usage
		executed       int
		scenarios      int
		csv0           string
	)
	for i := range repCount(rc.seconds, w.nominal, minReps) {
		ref := refLoad()
		out, err := rep(rc, g)
		if err != nil {
			rc.op(false, "%s: run %d: %v", w.name, i, err)
			return csv0
		}
		refs = append(refs, ms(ref))
		rawWalls = append(rawWalls, ms(out.wall))
		walls = append(walls, scaledMs(out.wall, ref))
		firsts = append(firsts, scaledMs(out.firstRow, ref)/1000)
		use.cpu += out.use.cpu
		use.alloc += out.use.alloc
		executed += out.executed
		checkRows(rc, w.name, out.res.Runs)
		scenarios = len(out.res.Runs)
		csv := out.res.CSV()
		if i == 0 {
			csv0 = csv
		} else {
			rc.op(csv == csv0, "%s: run %d's CSV differs from run 0's", w.name, i)
		}
	}
	checkDigest(rc, w.name, csv0)

	rc.samples["answer_ms"], rc.samples["setup_s"] = walls, firsts
	rc.samples["answer_wall_ms"], rc.samples["ref_ms"] = rawWalls, refs
	rc.gate("setup_s", median(firsts))
	rc.gate("answer_ms_p50", median(walls))
	rc.gate("heap_alloc_mb_per_scenario", float64(use.alloc)/mb/float64(executed))
	rc.gate("max_rss_mb", maxRSSMB())
	rc.extra("answer_wall_ms_p50", "ms", median(rawWalls))
	rc.extra("ref_ms_p50", "ms", median(refs))
	rc.extra("cpu_ms_per_scenario", "ms", ms(use.cpu)/float64(executed))
	rc.extra("scenarios_per_s", "1/s", float64(scenarios)/(median(rawWalls)/1000))
	rc.extra("runs", "count", float64(len(walls)))
	rc.extra("scenarios_per_run", "count", float64(scenarios))
	return csv0
}

// checkRows counts every row as an operation, failed when it carries
// an error.
func checkRows(rc *runCtx, name string, rows []sweep.RunResult) {
	for i := range rows {
		rc.op(rows[i].Err == "", "%s: scenario %s failed: %s", name, rows[i].Scenario.ID(), rows[i].Err)
	}
}

// checkInProcess runs the grid once through sweep.Run in process and
// requires the CSV to equal the one the measured runs produced.
func checkInProcess(rc *runCtx, g sweep.Grid, csv string) {
	res, err := sweep.Run(g, sweep.Options{Workers: workers})
	if err != nil {
		rc.op(false, "in-process reference run: %v", err)
		return
	}
	rc.op(res.CSV() == csv, "the distributed CSV differs from the same grid run in process")
}
