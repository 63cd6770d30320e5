package sweep

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"text/tabwriter"

	"repro/internal/topology"
)

// CSV returns the run table in a fixed column order and formatting.
// The bytes depend only on the grid, never on worker count or timing
// — the determinism tests compare this output verbatim.
func (r *Results) CSV() string {
	var b strings.Builder
	b.WriteString("policy,predictor,transitions,trace,vms,max_servers,eval_days,seed," +
		"static_power_w,churn_fraction,churn_affected_vms,slots," +
		"total_energy_mj,transition_mj,violations,mean_active,peak_active," +
		"migrations,mean_planned_freq_ghz,topology,dc_count,ep_score,per_dc," +
		"rebalance,cross_dc_migrations,latency_weighted_viol," +
		"power_model,operational_gco2,embodied_gco2,error\n")
	for i := range r.Runs {
		run := &r.Runs[i]
		s := run.Scenario
		fmt.Fprintf(&b, "%s,%s,%s,%s,%d,%d,%d,%d,%g,%g,%d,%d,%.6f,%.6f,%d,%.6f,%d,%d,%.6f,%s,%d,%.6f,%s,%s,%d,%.6f,%s,%.6f,%.6f,%s\n",
			csvField(s.Policy), csvField(s.Predictor), csvField(s.Transitions),
			csvField(s.TraceSpec), s.VMs, s.MaxServers, s.EvalDays, s.Seed,
			s.StaticPowerW, s.ChurnFraction, run.ChurnAffectedVMs, run.Slots,
			run.TotalEnergyMJ, run.TransitionMJ, run.Violations, run.MeanActive,
			run.PeakActive, run.Migrations, run.MeanPlannedFreqGHz,
			csvField(s.Topology), run.DCCount, run.EPScore,
			csvField(perDCField(run.PerDC)), csvField(s.Rebalance),
			run.CrossDCMigrations, run.LatencyWeightedViol,
			csvField(s.powerModel()), run.OperationalGCO2, run.EmbodiedGCO2,
			csvField(run.Err))
	}
	return b.String()
}

// perDCField compacts the per-datacenter provenance of a fleet row
// into one CSV cell: "name=facilityMJ" pairs in fleet order,
// semicolon-separated. Single-topology rows leave it empty — the flat
// columns already are the one DC. Full per-DC detail lives in JSON.
func perDCField(dcs []topology.DCRun) string {
	if len(dcs) == 0 {
		return ""
	}
	parts := make([]string, len(dcs))
	for i, dc := range dcs {
		parts[i] = fmt.Sprintf("%s=%.3f", dc.Name, dc.EnergyMJ)
	}
	return strings.Join(parts, ";")
}

// csvField quotes a free-text field (error messages, user-supplied
// names) RFC 4180-style when it would otherwise break the row.
func csvField(s string) string {
	if strings.ContainsAny(s, ",\"\n\r") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// JSON returns the sweep (grid and runs) as indented JSON. Like CSV,
// the bytes are independent of worker count and cache state:
// execution metadata (loader and cache statistics, timing) lives in
// the Summary only.
func (r *Results) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Summary writes a human-readable digest: per-policy aggregates over
// all scenarios, input-sharing stats, and wall-clock time.
func (r *Results) Summary(w io.Writer) error {
	type agg struct {
		n          int
		energy     float64
		violations int
		active     float64
		failed     int
	}
	byPolicy := map[string]*agg{}
	var order []string
	for i := range r.Runs {
		run := &r.Runs[i]
		a := byPolicy[run.Scenario.Policy]
		if a == nil {
			a = &agg{}
			byPolicy[run.Scenario.Policy] = a
			order = append(order, run.Scenario.Policy)
		}
		if run.Err != "" {
			a.failed++
			continue
		}
		a.n++
		a.energy += run.TotalEnergyMJ
		a.violations += run.Violations
		a.active += run.MeanActive
	}
	// order is first-seen, i.e. the grid's presentation order (the
	// paper's EPACT-first ordering when policies are the default).
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "sweep: %d scenarios, %d workers, %s\n", len(r.Runs), r.Workers, r.Elapsed.Round(1e6))
	fmt.Fprintf(tw, "inputs: %d traces built for %d requests, %d prediction sets for %d requests\n",
		r.Load.TraceBuilds, r.Load.TraceRequests, r.Load.PredictBuilds, r.Load.PredictRequests)
	if n := r.Load.SharedPlacements; n > 0 {
		fmt.Fprintf(tw, "allocations: %d policy calls answered from the allocation memo\n", n)
	}
	if n := r.Load.LookaheadComputed; n > 0 {
		fmt.Fprintf(tw, "lookahead: %d allocations computed ahead of their steppers, %d used\n", n, r.Load.LookaheadUsed)
	}
	if c := r.Cache; c.Hits+c.Misses+c.Writes > 0 {
		fmt.Fprintf(tw, "cache: %d hits, %d misses, %d rows written\n", c.Hits, c.Misses, c.Writes)
	}
	if r.CacheErr != nil {
		fmt.Fprintf(tw, "cache warning: %v\n", r.CacheErr)
	}
	fmt.Fprintln(tw, "policy\tscenarios\tmean energy (MJ)\ttotal violations\tmean active\tfailed")
	for _, p := range order {
		a := byPolicy[p]
		meanE, meanA := 0.0, 0.0
		if a.n > 0 {
			meanE = a.energy / float64(a.n)
			meanA = a.active / float64(a.n)
		}
		fmt.Fprintf(tw, "%s\t%d\t%.1f\t%d\t%.1f\t%d\n", p, a.n+a.failed, meanE, a.violations, meanA, a.failed)
	}
	return tw.Flush()
}
