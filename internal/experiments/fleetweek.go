package experiments

import (
	"fmt"

	"repro/internal/sweep"
	"repro/internal/topology"
)

// FleetWeek extends the paper's consolidate-or-spread question to a
// fleet of datacenters: the same week runs under every combination of
// cross-DC dispatch policy (where the VMs go) and per-DC allocation
// policy (how each DC packs them), on one heterogeneous fleet. It is
// the two-level analogue of Figs. 4-6 — global dispatch interacts
// with local consolidation the way subsystem power management
// interacts with node-level proportionality.

// FleetWeekRow is one (dispatcher, rebalance, policy) combination's
// week: the sweep row, whose Scenario carries the rebalance spec and
// the per-DC allocation policy, with the dispatcher it ran under.
type FleetWeekRow struct {
	// Dispatcher is the cross-DC dispatch policy.
	Dispatcher string

	sweep.RunResult
}

// FleetWeekConfig parameterises the fleet comparison.
type FleetWeekConfig struct {
	// DC is the per-datacenter scale and predictor setup; MaxServers
	// is the fleet-wide pool the fleet's shares split.
	DC DCConfig

	// Fleet is the fleet ref: a builtin name ("triad") or a
	// fleet-file path. Empty means "triad".
	Fleet string

	// Dispatchers are the cross-DC policies to compare; empty means
	// all of them (topology.DispatcherNames).
	Dispatchers []string

	// Rebalances are the cross-DC rebalancing specs to compare per
	// dispatcher ("off", "epoch:N[@dispatcher]"); empty means the
	// static dispatch only.
	Rebalances []string

	// Policies are the per-DC allocation policies; empty means the
	// consolidate-vs-spread pair EPACT and COAT.
	Policies []string
}

// FleetWeek runs the fleet-scale consolidation study as a thin
// adapter over the sweep engine: one grid whose topology axis is the
// fleet under each dispatcher, crossed with the requested rebalance
// specs (static dispatch vs epoch-rebalanced control loop). The trace
// and prediction set are ingested and fitted once and shared across
// every combination.
func FleetWeek(cfg FleetWeekConfig) ([]FleetWeekRow, error) {
	if cfg.Fleet == "" {
		cfg.Fleet = "triad"
	}
	if len(cfg.Dispatchers) == 0 {
		cfg.Dispatchers = topology.DispatcherNames()
	}
	if len(cfg.Rebalances) == 0 {
		cfg.Rebalances = []string{"off"}
	}
	if len(cfg.Policies) == 0 {
		cfg.Policies = []string{"EPACT", "COAT"}
	}
	g := weekGrid(cfg.DC, cfg.Policies)
	for _, d := range cfg.Dispatchers {
		g.Topologies = append(g.Topologies, d+"@"+cfg.Fleet)
	}
	g.Rebalances = cfg.Rebalances
	runs, err := runGrid(g)
	if err != nil {
		return nil, err
	}
	// Expansion nests topologies outside rebalances outside policies:
	// runs arrive as (dispatcher, rebalance, policy) in the requested
	// order.
	perDisp := len(cfg.Rebalances) * len(cfg.Policies)
	if len(runs) != len(cfg.Dispatchers)*perDisp {
		return nil, fmt.Errorf("experiments: fleet week produced %d runs, want %d",
			len(runs), len(cfg.Dispatchers)*perDisp)
	}
	rows := make([]FleetWeekRow, len(runs))
	for i, r := range runs {
		rows[i] = FleetWeekRow{Dispatcher: cfg.Dispatchers[i/perDisp], RunResult: r}
	}
	return rows, nil
}
