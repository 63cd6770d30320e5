// Command ntc-serve is the live fleet service: it hosts concurrent
// scenario sessions, each replaying one sweep scenario slot by slot
// (1 slot = 1 hour of trace time), and serves
//
//	GET  /metrics            one OpenMetrics page over all sessions
//	POST /v1/sessions        create a session (axis deltas, live ingestion)
//	GET  /v1/sessions        list sessions
//	DELETE /v1/sessions/{id} retire a session
//	GET  /v1/sessions/{id}   session status
//	POST /v1/sessions/{id}/step|whatif|observe
//	GET  /healthz            liveness probe
//
// The default session's scenario comes from single-valued axis flags
// (the same axes ntc-sweep sweeps); further sessions are created over
// HTTP as deltas against that base. With -tick every session advances
// on a wall-clock ticker; without it replays only move when stepped,
// which is what the CI serve gate and scripted experiments use.
//
//	ntc-serve -addr :8740 -topology uniform@triad -rebalance epoch:4 -tick 2s
//	ntc-serve -addr :8740 -cache rw -cache-dir store   # manual ticks, warm what-ifs
//
// What-if deltas re-use the incremental result store (-cache/-cache-dir,
// shared with ntc-sweep): a warm store answers without executing a
// single scenario. See docs/SERVING.md for the endpoint and gauge
// reference.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/serve"
	"repro/internal/sweep"
	"repro/internal/sweep/cache"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "ntc-serve:", err)
		os.Exit(1)
	}
}

// run is the testable entry point: parse flags, build the service,
// announce the bound address on stderr, and serve until the process
// dies (the daemon has no other exit path).
func run(args []string, stdout, stderr io.Writer) error {
	s, ln, tick, err := setup(args, stderr)
	if err != nil {
		return err
	}
	return serveHTTP(s, ln, tick, stderr)
}

// setup parses flags and builds the server plus its listener — split
// from run so tests can drive a fully configured service without
// blocking in Serve.
func setup(args []string, stderr io.Writer) (*serve.Server, net.Listener, time.Duration, error) {
	fs, fl := newFlags(stderr)
	if err := fs.Parse(args); err != nil {
		return nil, nil, 0, err
	}
	if fs.NArg() > 0 {
		return nil, nil, 0, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}

	mode, err := cache.ParseMode(*fl.cacheMode)
	if err != nil {
		return nil, nil, 0, err
	}
	store, err := cache.Open(*fl.cacheDir, mode)
	if err != nil {
		return nil, nil, 0, err
	}

	s, err := serve.New(serve.Options{
		Grid: sweep.Grid{
			Policies:       []string{*fl.policy},
			VMs:            []int{*fl.vms},
			MaxServers:     []int{*fl.maxServers},
			HistoryDays:    *fl.history,
			EvalDays:       *fl.days,
			Seeds:          []int64{*fl.seed},
			StaticPowerW:   []float64{*fl.static},
			Predictors:     []string{*fl.predictor},
			Transitions:    []sweep.TransitionSpec{{Name: *fl.transitions}},
			ChurnFractions: []float64{*fl.churn},
			Traces:         []string{*fl.trace},
			Topologies:     []string{*fl.topology},
			Rebalances:     []string{*fl.rebalance},
			PowerModels:    []string{*fl.powerModel},
		},
		Cache:              store,
		MaxWhatIfScenarios: *fl.whatifMax,
		MaxWhatIfVMs:       *fl.whatifVMs,
		WhatIfWorkers:      *fl.whatifWorkers,
		MaxSessions:        *fl.maxSessions,
	})
	if err != nil {
		return nil, nil, 0, err
	}

	ln, err := net.Listen("tcp", *fl.addr)
	if err != nil {
		return nil, nil, 0, err
	}
	return s, ln, *fl.tick, nil
}

// serveHTTP announces the service and serves it forever, ticking the
// replay when a wall-clock interval is configured.
func serveHTTP(s *serve.Server, ln net.Listener, tick time.Duration, stderr io.Writer) error {
	snap := s.Snapshot()
	fmt.Fprintf(stderr, "ntc-serve: listening on %s\n", ln.Addr())
	fmt.Fprintf(stderr, "ntc-serve: scenario %s (%d slots)\n", s.Scenario().ID(), snap.Slots)
	if tick > 0 {
		fmt.Fprintf(stderr, "ntc-serve: advancing 1 slot per %s\n", tick)
		go func() {
			t := time.NewTicker(tick)
			defer t.Stop()
			for range t.C {
				// Tick advances every live session one slot; finished
				// replays and ingestion sessions awaiting samples are
				// no-ops, so the ticker keeps every session live. A
				// failed session stays failed; keep ticking the rest.
				if err := s.Tick(); err != nil {
					fmt.Fprintf(stderr, "ntc-serve: tick: %v\n", err)
				}
			}
		}()
	} else {
		fmt.Fprintln(stderr, "ntc-serve: manual ticks (POST /v1/sessions/{id}/step)")
	}
	return http.Serve(ln, s.Handler())
}

// flags holds the parsed flag values; newFlags binds them so setup
// and the tests share one definition.
type flags struct {
	addr          *string
	tick          *time.Duration
	policy        *string
	vms           *int
	maxServers    *int
	days          *int
	history       *int
	seed          *int64
	static        *float64
	predictor     *string
	transitions   *string
	churn         *float64
	trace         *string
	topology      *string
	rebalance     *string
	powerModel    *string
	cacheMode     *string
	cacheDir      *string
	whatifMax     *int
	whatifVMs     *int
	whatifWorkers *int
	maxSessions   *int
}

func newFlags(stderr io.Writer) (*flag.FlagSet, *flags) {
	fs := flag.NewFlagSet("ntc-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fl := &flags{
		addr:          fs.String("addr", "127.0.0.1:8740", "listen address (host:port)"),
		tick:          fs.Duration("tick", 0, "advance one slot per interval (0 = manual ticks via POST /v1/sessions/{id}/step)"),
		policy:        fs.String("policy", "EPACT", "allocation policy"),
		vms:           fs.Int("vms", 600, "trace VM count"),
		maxServers:    fs.Int("max-servers", 600, "physical pool bound (0 = unbounded)"),
		days:          fs.Int("days", 7, "evaluated days (24 slots/day)"),
		history:       fs.Int("history", 7, "history days fed to the predictor"),
		seed:          fs.Int64("seed", 2018, "trace seed"),
		static:        fs.Float64("static", 0, "static-power override in W (0 = default 15 W)"),
		predictor:     fs.String("predictor", "arima", "forecast variant"),
		transitions:   fs.String("transitions", "none", "transition-cost model"),
		churn:         fs.Float64("churn", 0, "VM churn fraction in [0,1]"),
		trace:         fs.String("trace", "synthetic", "trace backend spec (synthetic, csv:file, cluster:file)"),
		topology:      fs.String("topology", "single", "fleet topology ([dispatcher@]builtin or [dispatcher@]fleet.json)"),
		rebalance:     fs.String("rebalance", "off", `cross-DC rebalance spec ("off" or "epoch:N[@dispatcher]")`),
		powerModel:    fs.String("power-model", "ntc", "server power model (ntc, tdp); changes energy/carbon pricing only, never placement"),
		cacheMode:     fs.String("cache", "off", "what-if result cache: off, rw (read+write), ro (read-only)"),
		cacheDir:      fs.String("cache-dir", "", "result-cache directory (required unless -cache off)"),
		whatifMax:     fs.Int("whatif-max", serve.DefaultMaxWhatIfScenarios, "max scenarios one what-if request may expand to"),
		whatifVMs:     fs.Int("whatif-vms", serve.DefaultMaxWhatIfVMs, "max VM count a what-if may ask for"),
		whatifWorkers: fs.Int("whatif-workers", serve.DefaultWhatIfWorkers, "concurrent what-if scenario executions"),
		maxSessions:   fs.Int("max-sessions", serve.DefaultMaxSessions, "max concurrent sessions, the default session included"),
	}
	return fs, fl
}
