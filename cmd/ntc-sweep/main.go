// Command ntc-sweep runs a scenario grid through the concurrent
// sweep engine and emits a machine-readable results table plus a
// summary.
//
// The grid comes either from flags (comma-separated axis values) or
// from a JSON file via -grid; flags and file are mutually exclusive.
//
//	ntc-sweep -policies EPACT,COAT -vms 150 -days 2 -workers 8
//	ntc-sweep -grid grid.json -csv results.csv -json results.json
//
// Traces come from pluggable ingestion backends via -trace
// ("synthetic", "csv:file", "cluster:file"; see docs/TRACES.md), and
// -cache/-cache-dir enable the incremental result store: re-running a
// grid only executes scenarios whose inputs changed.
//
//	ntc-sweep -trace csv:week.csv -vms 200 -days 2 -history 2
//	ntc-sweep -grid grid.json -cache rw -cache-dir .sweep-cache
//
// Datacenter topologies come from fleet specs via -topology
// ("single", "[dispatcher@]builtin", "[dispatcher@]fleet.json"; see
// docs/TOPOLOGY.md): each scenario's VMs are dispatched across the
// fleet's datacenters and every datacenter simulates independently.
//
//	ntc-sweep -topology single,uniform@triad,greedy-proportional@triad -days 2
//
// The rebalance axis (-rebalance "off" or "epoch:N[@dispatcher]")
// re-runs cross-DC dispatch every N slots over the observed load and
// prices every VM moved between datacenters (migration energy,
// downtime violation-samples, latency-weighted QoS):
//
//	ntc-sweep -topology uniform@triad -rebalance off,epoch:4@greedy-proportional -days 2
//
// Sweeps also run distributed (see docs/DISTRIBUTED.md): -serve makes
// this process the coordinator for a grid, -worker joins a running
// coordinator from any machine sharing the input files, and
// -dist local:N runs the whole coordinator/worker protocol in-process.
//
//	ntc-sweep -grid grid.json -cache rw -cache-dir store -serve :8700
//	ntc-sweep -worker coordinator-host:8700
//	ntc-sweep -grid grid.json -dist local:8
//
// The CSV/JSON output is byte-identical for any -workers value, any
// cache state, and any distributed worker count: the engine seeds
// every scenario deterministically, orders results by grid expansion,
// and keeps execution metadata (timing, load and cache statistics)
// out of both serialisations.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/power"
	"repro/internal/sweep"
	"repro/internal/sweep/cache"
	"repro/internal/sweep/dist"
	"repro/internal/topology"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "ntc-sweep:", err)
		os.Exit(1)
	}
}

// run is the testable entry point: parses args, runs the sweep, and
// writes outputs. CSV goes to -csv (or stdout), the summary to stderr
// so piped CSV output stays clean.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("ntc-sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		gridFile    = fs.String("grid", "", "JSON grid file (mutually exclusive with the axis flags)")
		policies    = fs.String("policies", "EPACT,COAT,COAT-OPT", "comma-separated policies ("+strings.Join(sweep.PolicyNames(), ", ")+")")
		vms         = fs.String("vms", "600", "comma-separated VM counts")
		maxServers  = fs.String("max-servers", "600", "comma-separated physical pool bounds (0 = unbounded)")
		days        = fs.Int("days", 7, "evaluated days")
		history     = fs.Int("history", 7, "history days fed to the predictor")
		seeds       = fs.String("seeds", "2018", "comma-separated trace seeds")
		static      = fs.String("static", "0", "comma-separated static-power overrides in W (0 = default 15 W)")
		predictors  = fs.String("predictors", "arima", "comma-separated predictors ("+strings.Join(sweep.PredictorNames(), ", ")+")")
		transitions = fs.String("transitions", "none", "comma-separated transition models ("+strings.Join(sweep.TransitionNames(), ", ")+")")
		churn       = fs.String("churn", "0", "comma-separated churn fractions in [0,1]")
		traces      = fs.String("trace", "synthetic", "comma-separated trace backends ("+strings.Join(trace.Backends(), ", ")+"), e.g. synthetic,csv:week.csv")
		topologies  = fs.String("topology", "single", "comma-separated fleet topologies ([dispatcher@]builtin or [dispatcher@]fleet.json; dispatchers: "+strings.Join(topology.DispatcherNames(), ", ")+"), e.g. single,greedy-proportional@triad")
		rebalances  = fs.String("rebalance", "off", `comma-separated cross-DC rebalance specs ("off" or "epoch:N[@dispatcher]"), e.g. off,epoch:4@greedy-proportional`)
		powerModels = fs.String("power-model", "ntc", "comma-separated server power models ("+strings.Join(power.ModelNames(), ", ")+"); changes energy/carbon pricing only, never placement")
		workers     = fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		cacheMode   = fs.String("cache", "off", "incremental result cache: off, rw (read+write), ro (read-only)")
		cacheDir    = fs.String("cache-dir", "", "result-cache directory (required unless -cache off)")
		csvPath     = fs.String("csv", "", "write the CSV table here instead of stdout")
		jsonPath    = fs.String("json", "", "also write full results as JSON here")
		quiet       = fs.Bool("quiet", false, "suppress the summary")
		serveAddr   = fs.String("serve", "", "run as distributed-sweep coordinator on this address (host:port; see docs/DISTRIBUTED.md)")
		workerAddr  = fs.String("worker", "", "run as a distributed-sweep worker against the coordinator at this address")
		distSpec    = fs.String("dist", "", `distributed execution in one process: "local:N" = coordinator + N workers`)
		leaseTTL    = fs.Duration("lease-ttl", time.Minute, "distributed modes: re-lease a scenario not completed within this window (crashed-worker retry)")
		ckptDir     = fs.String("checkpoint-dir", "", "coordinator modes: journal completed rows here (atomic rename) so a killed run resumes with -resume")
		resumeDir   = fs.String("resume", "", "resume a killed coordinator from this checkpoint directory (the journal defines the grid)")
		serveBlobs  = fs.Bool("serve-blobs", true, "coordinator modes: ship file-backed trace/fleet inputs to workers without filesystem access to their paths")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %s", strings.Join(fs.Args(), " "))
	}

	// The distributed modes are mutually exclusive ways to execute
	// one grid (and -worker executes someone else's grid).
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	modes := 0
	for _, m := range []string{*serveAddr, *workerAddr, *distSpec} {
		if m != "" {
			modes++
		}
	}
	if modes > 1 {
		return fmt.Errorf("-serve, -worker and -dist are mutually exclusive")
	}
	// Validate the -dist spec up front with the other flag checks —
	// a typo should fail before any banner or cache directory I/O.
	distWorkers := 0
	if *distSpec != "" {
		var err error
		if distWorkers, err = parseDistSpec(*distSpec); err != nil {
			return err
		}
	}
	if (*serveAddr != "" || *distSpec != "") && set["workers"] {
		return fmt.Errorf("-workers applies to the in-process pool only; distributed modes size their own worker sets")
	}
	// Checkpointing, resume and blob serving are coordinator features:
	// they need a coordinator in this process to act on.
	coordinatorMode := *serveAddr != "" || *distSpec != ""
	for _, f := range []struct {
		name string
		used bool
	}{
		{"checkpoint-dir", *ckptDir != ""},
		{"resume", *resumeDir != ""},
		{"serve-blobs", set["serve-blobs"]},
	} {
		if f.used && !coordinatorMode {
			return fmt.Errorf("-%s needs a coordinator mode (-serve or -dist local:N)", f.name)
		}
	}
	if *resumeDir != "" && *ckptDir != "" {
		return fmt.Errorf("-resume and -checkpoint-dir are mutually exclusive (a resumed run keeps journaling to the checkpoint it resumes from)")
	}
	if *workerAddr != "" {
		// A worker owns nothing: the coordinator defines the grid,
		// the cache and the outputs. Any other flag (allowlist aside)
		// is a command line that reads like it does something it
		// doesn't — the allowlist keeps this check correct as flags
		// are added.
		allowed := map[string]bool{"worker": true, "quiet": true}
		for f := range set {
			if !allowed[f] {
				return fmt.Errorf("-worker and -%s are mutually exclusive (the coordinator owns the grid, cache and outputs)", f)
			}
		}
		// Remote workers poll gently: the in-process default (25 ms)
		// is tuned for goroutines sharing a mutex, not for N machines
		// hammering one coordinator over HTTP while starved.
		n, err := dist.Work(context.Background(), dist.NewClient(*workerAddr), dist.WorkerOptions{Poll: 2 * time.Second})
		if err != nil {
			return err
		}
		if !*quiet {
			fmt.Fprintf(stderr, "worker: executed %d scenarios for %s\n", n, *workerAddr)
		}
		return nil
	}

	mode, err := cache.ParseMode(*cacheMode)
	if err != nil {
		return err
	}
	store, err := cache.Open(*cacheDir, mode)
	if err != nil {
		return err
	}

	var g sweep.Grid
	var ck *dist.Checkpoint
	if *resumeDir != "" {
		// A resumed run's grid comes from the journal — the axis flags
		// and -grid would describe a possibly different grid, so they
		// conflict the same way -grid conflicts with axis flags.
		if conflict := firstAxisFlag(fs); conflict != "" {
			return fmt.Errorf("-resume and -%s are mutually exclusive (the checkpoint journal defines the grid)", conflict)
		}
		if *gridFile != "" {
			return fmt.Errorf("-resume and -grid are mutually exclusive (the checkpoint journal defines the grid)")
		}
		var err error
		if ck, err = dist.LoadCheckpoint(*resumeDir); err != nil {
			return err
		}
		g = ck.Grid
	} else if *gridFile != "" {
		// The axis flags and -grid are mutually exclusive: silently
		// ignoring explicit flags would run a different grid than the
		// command line reads.
		if conflict := firstAxisFlag(fs); conflict != "" {
			return fmt.Errorf("-grid and -%s are mutually exclusive (the grid file defines every axis)", conflict)
		}
		data, err := os.ReadFile(*gridFile)
		if err != nil {
			return err
		}
		if g, err = sweep.ParseGridJSON(data); err != nil {
			return err
		}
	} else {
		var err error
		if g, err = gridFromFlags(*policies, *vms, *maxServers, *seeds, *static,
			*predictors, *transitions, *churn, *traces, *topologies, *rebalances,
			*powerModels, *days, *history); err != nil {
			return err
		}
	}

	// Expand before running so an unknown axis value (policy,
	// predictor, transition, trace backend, ...) is a clear error and
	// a non-zero exit, never a partial or empty table.
	scens, err := sweep.Expand(g)
	if err != nil {
		return err
	}
	if !*quiet {
		if ck != nil {
			fmt.Fprintf(stderr, "resuming: %d of %d rows restored from %s\n", ck.Completed, len(scens), *resumeDir)
		}
		fmt.Fprintf(stderr, "running %d scenarios...\n", len(scens))
	}

	// Both coordinator modes build the coordinator the same way; only
	// the transport differs (HTTP listener vs in-process goroutines).
	dopt := dist.Options{Cache: store, LeaseTTL: *leaseTTL, CheckpointDir: *ckptDir, DisableBlobs: !*serveBlobs}
	makeCoordinator := func() (*dist.Coordinator, error) {
		if ck != nil {
			return dist.Resume(ck, dopt)
		}
		return dist.NewCoordinator(g, dopt)
	}

	var res *sweep.Results
	switch {
	case *serveAddr != "":
		var c *dist.Coordinator
		if c, err = makeCoordinator(); err == nil {
			res, err = serveCoordinator(*serveAddr, c, *quiet, stderr)
		}
	case *distSpec != "":
		var c *dist.Coordinator
		if c, err = makeCoordinator(); err == nil {
			var stats dist.Stats
			res, stats, err = dist.RunCoordinator(context.Background(), c, distWorkers)
			if err == nil && !*quiet {
				printDistStats(stderr, stats)
			}
		}
	default:
		res, err = sweep.Run(g, sweep.Options{Workers: *workers, Cache: store})
	}
	if err != nil {
		return err
	}

	csv := res.CSV()
	if *csvPath != "" {
		if err := os.WriteFile(*csvPath, []byte(csv), 0o644); err != nil {
			return err
		}
	} else {
		if _, err := io.WriteString(stdout, csv); err != nil {
			return err
		}
	}
	if *jsonPath != "" {
		data, err := res.JSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			return err
		}
	}
	if !*quiet {
		if err := res.Summary(stderr); err != nil {
			return err
		}
	} else if res.CacheErr != nil {
		// Cache write failures are warnings (results are complete),
		// but never swallow them entirely.
		fmt.Fprintf(stderr, "ntc-sweep: warning: %v\n", res.CacheErr)
	}
	// Scenario failures are recorded in the table; surface them on
	// the exit code too.
	return res.Failed()
}

// lingerCap bounds how long a -serve coordinator waits, once its sweep
// is done, for the workers that took part to be answered Done.
const lingerCap = 3 * time.Second

// serveCoordinator runs a distributed sweep's coordinator: serve the
// HTTP/JSON worker protocol on addr until every scenario has a row,
// then linger until the workers that took part have been answered
// Done (lingerCap at most), and return the merged results.
func serveCoordinator(addr string, c *dist.Coordinator, quiet bool, stderr io.Writer) (*sweep.Results, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	if !quiet {
		fmt.Fprintf(stderr, "coordinator: listening on %s\n", ln.Addr())
	}
	srv := &http.Server{Handler: dist.NewHandler(c)}
	go srv.Serve(ln) //nolint:errcheck // Shutdown below is the exit path

	res, err := c.Wait(context.Background())
	// Linger until every worker that took part has been answered Done,
	// so workers sleeping in their poll interval (2 s for remote
	// workers) observe the done signal before the listener closes. A
	// worker that vanished is waited for 3 s at most; its retry backoff
	// bridges the remainder. A fully warm sweep that no worker ever
	// executed for has nobody to signal.
	if c.Stats().Workers > 0 {
		select {
		case <-c.WorkersTold():
		case <-time.After(lingerCap):
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = srv.Shutdown(ctx)
	if err != nil {
		return nil, err
	}
	if !quiet {
		printDistStats(stderr, c.Stats())
	}
	return res, nil
}

// parseDistSpec parses the -dist value ("local:N").
func parseDistSpec(spec string) (int, error) {
	rest, ok := strings.CutPrefix(spec, "local:")
	if !ok {
		return 0, fmt.Errorf(`-dist: unknown spec %q (want "local:N")`, spec)
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf(`-dist: worker count in %q must be a positive integer`, spec)
	}
	return n, nil
}

// firstAxisFlag returns the first explicitly-set axis flag, for the
// mutual-exclusion checks against grid-defining sources (-grid, the
// -resume journal).
func firstAxisFlag(fs *flag.FlagSet) string {
	axisFlags := map[string]bool{
		"policies": true, "vms": true, "max-servers": true, "days": true,
		"history": true, "seeds": true, "static": true, "predictors": true,
		"transitions": true, "churn": true, "trace": true, "topology": true,
		"rebalance": true, "power-model": true,
	}
	conflict := ""
	fs.Visit(func(f *flag.Flag) {
		if axisFlags[f.Name] && conflict == "" {
			conflict = f.Name
		}
	})
	return conflict
}

// printDistStats reports coordinator traffic next to the summary.
// New counters append after the original eight fields: the warm-cache
// CI gate greps this line by prefix.
func printDistStats(w io.Writer, s dist.Stats) {
	fmt.Fprintf(w, "dist: %d units (%d cache hits), %d leases to %d workers, %d renewed, %d expired, %d stale, %d duplicate, %d released, %d resumed, %d blobs\n",
		s.Units, s.CacheHits, s.Leases, s.Workers, s.Renewals, s.Expired, s.Stale, s.Duplicates,
		s.Released, s.Resumed, s.Blobs)
}

// gridFromFlags assembles a grid from the comma-separated axis flags.
func gridFromFlags(policies, vms, maxServers, seeds, static, predictors, transitions, churn, traces, topologies, rebalances, powerModels string, days, history int) (sweep.Grid, error) {
	g := sweep.Grid{
		Policies:    splitList(policies),
		Predictors:  splitList(predictors),
		Traces:      splitList(traces),
		Topologies:  splitList(topologies),
		Rebalances:  splitList(rebalances),
		PowerModels: splitList(powerModels),
		EvalDays:    days,
		HistoryDays: history,
	}
	for _, name := range splitList(transitions) {
		g.Transitions = append(g.Transitions, sweep.TransitionSpec{Name: name})
	}
	parseInt64 := func(f string) (int64, error) { return strconv.ParseInt(f, 10, 64) }
	parseFloat := func(f string) (float64, error) { return strconv.ParseFloat(f, 64) }
	var err error
	if g.VMs, err = parseList("vms", vms, strconv.Atoi); err != nil {
		return g, err
	}
	if g.MaxServers, err = parseList("max-servers", maxServers, strconv.Atoi); err != nil {
		return g, err
	}
	if g.Seeds, err = parseList("seeds", seeds, parseInt64); err != nil {
		return g, err
	}
	if g.StaticPowerW, err = parseList("static", static, parseFloat); err != nil {
		return g, err
	}
	if g.ChurnFractions, err = parseList("churn", churn, parseFloat); err != nil {
		return g, err
	}
	return g, nil
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// parseList parses each value of the comma-separated flag value s,
// naming the flag in the error.
func parseList[T any](flag, s string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, f := range splitList(s) {
		v, err := parse(f)
		if err != nil {
			return nil, fmt.Errorf("-%s: %w", flag, err)
		}
		out = append(out, v)
	}
	return out, nil
}
