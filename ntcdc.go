// Package ntcdc is the public facade of the NTC data-center library:
// a from-scratch reproduction of "Energy Proportionality in
// Near-Threshold Computing Servers and Cloud Data Centers:
// Consolidating or Not?" (Pahlevan et al., DATE 2018).
//
// The library models 28nm UTBB FD-SOI near-threshold servers, the
// workloads and QoS rules of the paper, ARIMA-driven day-ahead
// forecasting, and the EPACT dynamic VM-allocation policy together
// with the consolidation baselines it is evaluated against — plus
// runners that regenerate every table and figure of the paper's
// evaluation section.
//
// Quick start:
//
//	srv := ntcdc.NTCServerPower()
//	fmt.Println(srv.OptimalFrequency()) // ≈1.9 GHz
//
//	week, err := ntcdc.RunWeek(ntcdc.DefaultWeekConfig())
//	if err != nil { ... }
//	week.Render(os.Stdout)
//
// The heavy lifting lives in the internal packages (power, perf,
// alloc, dcsim, experiments); this package re-exports the surface a
// downstream user needs.
package ntcdc

import (
	"context"
	"net/http"

	"repro/internal/experiments"
	"repro/internal/fdsoi"
	"repro/internal/forecast"
	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/qos"
	"repro/internal/serve"
	"repro/internal/sweep"
	"repro/internal/sweep/cache"
	"repro/internal/sweep/dist"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/workload"
)

// Re-exported core types.
type (
	// Frequency is a clock frequency; construct with GHz or MHz.
	Frequency = units.Frequency

	// Power is electrical power in watts.
	Power = units.Power

	// Energy is in joules.
	Energy = units.Energy

	// ServerPowerModel is the component-level server power model of
	// Section IV (cores, LLC, uncore, DRAM, motherboard).
	ServerPowerModel = power.ServerModel

	// OperatingPoint feeds ServerPowerModel.Power.
	OperatingPoint = power.OperatingPoint

	// GridIntensityProfile is a per-DC carbon intensity (gCO2eq/kWh):
	// a scalar or a 24-value hourly profile (follow-the-sun pricing).
	GridIntensityProfile = topology.IntensityProfile

	// Tech is a process-technology model (FD-SOI or bulk).
	Tech = fdsoi.Tech

	// Platform is a server architecture's performance identity.
	Platform = platform.Platform

	// WorkloadClass identifies low-mem / mid-mem / high-mem.
	WorkloadClass = workload.Class

	// Trace is a set of per-VM utilisation histories.
	Trace = trace.Trace

	// TraceConfig parameterises the synthetic Google-style generator.
	TraceConfig = trace.Config

	// SweepCache is the incremental result store of the sweep engine;
	// open one with OpenSweepCache and pass it in SweepOptions.
	SweepCache = cache.Store

	// SweepCacheMode selects how a sweep uses the store (off/rw/ro).
	SweepCacheMode = cache.Mode

	// Predictor forecasts utilisation series (ARIMA and baselines).
	Predictor = forecast.Predictor

	// WeekResult is the Figs. 4-6 comparison output.
	WeekResult = experiments.DCWeekResult

	// WeekConfig parameterises the data-center experiments.
	WeekConfig = experiments.DCConfig

	// SweepGrid declares a scenario space (policy × pool × predictor
	// × transitions × churn × seed × trace source × topology ×
	// cross-DC rebalance) for the concurrent sweep engine.
	SweepGrid = sweep.Grid

	// SweepOptions tunes a sweep execution (worker count, progress).
	SweepOptions = sweep.Options

	// SweepResults is a completed sweep: runs in deterministic grid
	// order plus input-sharing stats, with CSV/JSON/Summary emitters.
	SweepResults = sweep.Results

	// SweepScenario is one concrete grid point.
	SweepScenario = sweep.Scenario

	// FleetTopology composes heterogeneous datacenters behind a
	// cross-DC dispatch policy (the multi-datacenter sweep axis).
	FleetTopology = topology.Fleet

	// FleetDC is one datacenter of a fleet topology.
	FleetDC = topology.DCSpec

	// FleetRebalance says when (and with which dispatcher) a fleet
	// re-dispatches its VMs across datacenters — the cross-DC
	// rebalance sweep axis ("off", "epoch:N[@dispatcher]").
	FleetRebalance = topology.RebalanceSpec

	// FleetResult is a completed fleet run with per-DC outcomes.
	FleetResult = topology.FleetResult

	// FleetWeekConfig parameterises the fleet-scale consolidation
	// study (RunFleetWeek).
	FleetWeekConfig = experiments.FleetWeekConfig

	// FleetWeekRow is one (dispatcher, rebalance, policy) fleet-week
	// outcome: the dispatcher and the sweep row.
	FleetWeekRow = experiments.FleetWeekRow

	// SweepCoordinator owns one distributed sweep: it partitions a
	// grid into leased work units, answers what the result store
	// already holds, and merges returned rows back into deterministic
	// expansion order (internal/sweep/dist).
	SweepCoordinator = dist.Coordinator

	// DistOptions tunes a distributed sweep (result store, lease TTL).
	DistOptions = dist.Options

	// DistStats reports a distributed sweep's traffic (units, cache
	// hits, leases, expiries, workers).
	DistStats = dist.Stats

	// DistBackend is the worker-side view of a coordinator — the
	// in-process Coordinator or an HTTP client (NewSweepWorkerClient).
	DistBackend = dist.Backend

	// SweepWorkerOptions tunes one worker loop (name, lease batch).
	SweepWorkerOptions = dist.WorkerOptions

	// FleetService is the live fleet service behind ntc-serve: it
	// hosts concurrent sessions, each replaying one sweep scenario on
	// the incremental stepper (or live-ingested telemetry), serves one
	// session-labelled OpenMetrics exposition, and answers per-session
	// what-if deltas and mid-replay forks from the result cache
	// (internal/serve; docs/SERVING.md).
	FleetService = serve.Server

	// FleetServiceOptions configures NewFleetService: the base grid
	// (which must expand to exactly one scenario — the default
	// session), an optional result store for what-ifs, the what-if
	// bounds, and the concurrent-session bound.
	FleetServiceOptions = serve.Options

	// FleetSnapshot is one consistent, slot-stamped view of a live
	// session (everything in it was computed at the same slot).
	FleetSnapshot = serve.Snapshot
)

// Workload classes (Section III-B).
const (
	LowMem  = workload.LowMem
	MidMem  = workload.MidMem
	HighMem = workload.HighMem
)

// GHz builds a Frequency from gigahertz.
func GHz(v float64) Frequency { return units.GHz(v) }

// MHz builds a Frequency from megahertz.
func MHz(v float64) Frequency { return units.MHz(v) }

// NTCServerPower returns the paper's proposed NTC server power model:
// 16 Cortex-A57 class cores in 28nm UTBB FD-SOI with the published
// uncore/DRAM/motherboard constants. Its OptimalFrequency is ≈1.9 GHz.
func NTCServerPower() *ServerPowerModel { return power.NTCServer() }

// ConventionalServerPower returns the non-NTC comparison server
// (Intel E5-2620 class): consolidation at F_max is optimal for it.
func ConventionalServerPower() *ServerPowerModel { return power.IntelE5_2620() }

// NTCPlatform returns the NTC server's performance model, calibrated
// to the paper's Table I and Fig. 2.
func NTCPlatform() *Platform { return platform.NTCServer() }

// FDSOI28 returns the 28nm UTBB FD-SOI technology model.
func FDSOI28() *Tech { return fdsoi.FDSOI28() }

// QoSLimit returns the execution-time limit (2x the x86 baseline) for
// a workload class.
func QoSLimit(c WorkloadClass) float64 { return qos.Limit(c) }

// MinQoSFrequency returns the lowest frequency meeting QoS for class c
// on platform p (Fig. 2 crossovers: 1.2 GHz low-mem, 1.8 GHz mid/high).
func MinQoSFrequency(p *Platform, c WorkloadClass) (Frequency, error) {
	return qos.MinFrequency(p, c)
}

// GenerateTrace synthesises a Google-cluster-style utilisation trace.
func GenerateTrace(cfg TraceConfig) (*Trace, error) { return trace.Generate(cfg) }

// ParseTopology parses and loads a fleet-topology spec
// ("[dispatcher@]builtin" or "[dispatcher@]fleet.json", e.g.
// "greedy-proportional@triad"). The returned fleet is unresolved:
// relative datacenters are sized against a scenario's pool at run
// time.
func ParseTopology(spec string) (FleetTopology, error) {
	s, err := topology.ParseSpec(spec)
	if err != nil {
		return FleetTopology{}, err
	}
	return s.Load()
}

// ParseFleetRebalance parses a cross-DC rebalance spec ("off" or
// "epoch:N[@dispatcher]", e.g. "epoch:4@greedy-proportional"): every
// N allocation slots the fleet re-dispatches over the observed load
// and pays migration energy plus downtime for each VM it moves.
func ParseFleetRebalance(spec string) (FleetRebalance, error) {
	return topology.ParseRebalanceSpec(spec)
}

// DefaultFleetWeekConfig returns the fleet-scale study at the paper's
// scale: 600 VMs over one evaluated week with ARIMA predictions,
// dispatched across the builtin heterogeneous "triad" fleet under
// every dispatch policy.
func DefaultFleetWeekConfig() FleetWeekConfig {
	return FleetWeekConfig{DC: experiments.DefaultDCConfig()}
}

// RunFleetWeek runs the multi-datacenter consolidation comparison:
// every cross-DC dispatcher × per-DC allocation policy on one fleet,
// sharing one trace and one prediction set across all combinations.
func RunFleetWeek(cfg FleetWeekConfig) ([]FleetWeekRow, error) {
	return experiments.FleetWeek(cfg)
}

// OpenSweepCache prepares an incremental sweep-result store rooted at
// dir ("off" returns the nil no-caching store).
func OpenSweepCache(dir string, mode SweepCacheMode) (*SweepCache, error) {
	return cache.Open(dir, mode)
}

// DefaultTraceConfig mirrors the paper's trace shape: 600 VMs, one
// week at 5-minute samples.
func DefaultTraceConfig(seed int64) TraceConfig { return trace.DefaultConfig(seed) }

// NewARIMA returns the paper's predictor: ARIMA with daily seasonal
// differencing, fitted per VM by Hannan-Rissanen.
func NewARIMA() Predictor { return &forecast.ARIMA{Cfg: forecast.DefaultConfig()} }

// WithBodyBias returns a body-biased view of an FD-SOI or bulk
// technology (the UTBB FD-SOI extension knob).
func WithBodyBias(t *Tech, bias float64) (*fdsoi.BiasedTech, error) {
	return t.WithBodyBias(fdsoi.BodyBias(bias))
}

// DefaultWeekConfig returns the paper-scale data-center experiment
// configuration (600 VMs, one evaluated week, ARIMA predictions).
func DefaultWeekConfig() WeekConfig { return experiments.DefaultDCConfig() }

// RunWeek runs the Figs. 4-6 comparison: EPACT vs COAT vs COAT-OPT on
// one trace with shared predictions.
func RunWeek(cfg WeekConfig) (*WeekResult, error) { return experiments.Fig4to6(cfg) }

// NewSweepCoordinator prepares a distributed sweep over the grid:
// units the result store answers are claimed immediately, the rest
// wait to be leased by workers (RunSweepWorker). Serve it to remote
// workers with NewSweepHandler, or drive it in-process.
func NewSweepCoordinator(g SweepGrid, opt DistOptions) (*SweepCoordinator, error) {
	return dist.NewCoordinator(g, opt)
}

// NewSweepHandler exposes a coordinator over the HTTP/JSON worker
// protocol (see docs/DISTRIBUTED.md).
func NewSweepHandler(c *SweepCoordinator) http.Handler { return dist.NewHandler(c) }

// NewSweepWorkerClient returns the worker-side HTTP transport for a
// coordinator at addr ("host:port" or an http:// URL).
func NewSweepWorkerClient(addr string) DistBackend { return dist.NewClient(addr) }

// RunSweepWorker runs one worker loop against a coordinator until the
// sweep completes, returning how many scenarios this worker executed.
func RunSweepWorker(ctx context.Context, b DistBackend, opt SweepWorkerOptions) (int, error) {
	return dist.Work(ctx, b, opt)
}

// RunDistributedSweep runs the whole coordinator/worker protocol in
// one process (n worker goroutines over the in-process transport) —
// `ntc-sweep -dist local:N` as a library call. Results are
// byte-identical to RunSweep on the same grid.
func RunDistributedSweep(ctx context.Context, g SweepGrid, n int, opt DistOptions) (*SweepResults, DistStats, error) {
	c, err := dist.NewCoordinator(g, opt)
	if err != nil {
		return nil, DistStats{}, err
	}
	return dist.RunCoordinator(ctx, c, n)
}

// RunSweep expands a scenario grid and executes it on a bounded
// worker pool with shared trace/prediction loading. Results are
// byte-identical for any worker count; an empty grid runs the paper's
// default EPACT/COAT/COAT-OPT week.
func RunSweep(g SweepGrid, opt SweepOptions) (*SweepResults, error) { return sweep.Run(g, opt) }

// NewFleetService builds the live fleet service: a slot-by-slot
// replay of the grid's single scenario with an OpenMetrics handler
// and a cache-backed what-if API. Advance it with Tick (or a ticker)
// and serve its Handler; see docs/SERVING.md.
func NewFleetService(opt FleetServiceOptions) (*FleetService, error) { return serve.New(opt) }
