package topology

import (
	"fmt"
	"strconv"
	"strings"
)

// The epoch rebalancer turns cross-DC dispatch from a one-shot static
// partition into a per-slot control loop: every N slots the fleet
// re-runs dispatch over the load observed so far and migrates VMs
// between datacenters. Each move is priced through the scenario's
// transition model (the memory copy of a WAN live migration) and
// charged a fixed downtime as QoS violation-samples at the
// destination, and every violation — downtime included — also feeds a
// latency-weighted metric so far-away placements pay a WAN penalty.
// This is the mechanism the energy-aware consolidation literature
// (Beloglazov et al.) treats as central and the paper's static setup
// leaves out: load shifts across the day, so a fleet that dispatches
// once understates what consolidation can save.

// WANLatencyRefMs is the reference WAN distance of the
// latency-weighted QoS metric: a violation at a DC this far away
// counts exactly once. It equals the DCSpec default latency, so a
// default single-DC fleet reports LatencyWeightedViol == Violations.
const WANLatencyRefMs = 10.0

// MigrationDowntimeSamples is the downtime every cross-DC live
// migration charges at the destination DC, in 5-minute
// violation-samples (a WAN live migration stalls the VM). Only epoch
// boundaries move VMs across DCs, so static dispatch (a single epoch)
// never charges it.
const MigrationDowntimeSamples = 1

// latencyWeight scales a DC's violations by its WAN distance.
func latencyWeight(ms float64) float64 { return ms / WANLatencyRefMs }

// RebalanceSpec says when (and with which dispatcher) a fleet
// re-dispatches its VMs. The zero value is "off" — the static
// one-shot dispatch every scenario used before the rebalancer.
//
// The spec-string grammar mirrors the other axes:
//
//	off                  no rebalancing (the default)
//	epoch:N              re-dispatch every N slots with the fleet's
//	                     own dispatcher
//	epoch:N@dispatcher   re-dispatch every N slots with an override;
//	                     the initial placement stays the fleet's own
//	                     static dispatch
type RebalanceSpec struct {
	// EverySlots is the epoch length in allocation slots (1 slot =
	// 1 hour); <= 0 means off.
	EverySlots int

	// Dispatcher overrides the dispatcher used at rebalancing epochs
	// only: the initial placement is still the fleet's own static
	// dispatch, so a rebalanced scenario answers "what does periodic
	// re-planning buy on top of the placement I already have" —
	// directly comparable to the static row. Empty re-dispatches with
	// the fleet's own policy.
	Dispatcher string
}

// Enabled reports whether the spec asks for rebalancing at all.
func (r RebalanceSpec) Enabled() bool { return r.EverySlots > 0 }

// String returns the canonical spec string ParseRebalanceSpec parses
// back ("off", "epoch:N", "epoch:N@dispatcher").
func (r RebalanceSpec) String() string {
	if !r.Enabled() {
		return "off"
	}
	s := fmt.Sprintf("epoch:%d", r.EverySlots)
	if r.Dispatcher != "" {
		s += "@" + r.Dispatcher
	}
	return s
}

// ParseRebalanceSpec parses "off" or "epoch:N[@dispatcher]". The
// empty string is "off" so unset axis values need no special casing.
func ParseRebalanceSpec(spec string) (RebalanceSpec, error) {
	if spec == "" || spec == "off" {
		return RebalanceSpec{}, nil
	}
	rest, ok := strings.CutPrefix(spec, "epoch:")
	if !ok {
		return RebalanceSpec{}, fmt.Errorf(`topology: unknown rebalance spec %q (want "off" or "epoch:N[@dispatcher]")`, spec)
	}
	var disp string
	if i := strings.Index(rest, "@"); i >= 0 {
		rest, disp = rest[:i], rest[i+1:]
		if !knownDispatcher(disp) {
			return RebalanceSpec{}, fmt.Errorf("topology: unknown dispatcher %q in rebalance spec %q (known: %s)",
				disp, spec, strings.Join(DispatcherNames(), ", "))
		}
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n <= 0 {
		return RebalanceSpec{}, fmt.Errorf("topology: rebalance epoch in %q must be a positive slot count", spec)
	}
	return RebalanceSpec{EverySlots: n, Dispatcher: disp}, nil
}

// The epoch loop itself lives in the fleet Stepper (stepper.go): static
// dispatch is its one-epoch case and rebalancing cuts the window into
// EverySlots-long epochs, so Run, the live slot-by-slot view and both
// dispatch modes share one accounting implementation.
