package serve

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// The exposition writer renders a deterministic Prometheus/OpenMetrics
// text page: families sorted by name, samples sorted by label set,
// shortest-round-trip float formatting, one # HELP and # TYPE line per
// family, and a final # EOF terminator. Every sample carries a session
// label (sessions shard the page; there are no unlabelled series), and
// sessions render in sorted id order. Determinism is a contract the
// golden exposition test byte-pins: two scrapes at the same slots are
// byte-identical (there is deliberately no scrape counter), so scraper
// dashboards and the CI serve check can diff pages directly.

// sample is one series of a family: a rendered label set and a value.
type sample struct {
	labels string // rendered, inside braces: `session="default",dc="core"`
	value  float64
}

// family is one metric family.
type family struct {
	name    string
	help    string
	typ     string // "gauge" — monotone families document it in help
	samples []sample
}

// labels renders a label set deterministically: keys in the given
// order (callers pass a fixed order), values escaped per the text
// exposition format.
func labels(kv ...string) string {
	if len(kv)%2 != 0 {
		panic("serve: labels requires key/value pairs")
	}
	var b strings.Builder
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(kv[i+1]))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// formatValue renders a sample value: the shortest representation
// that round-trips float64, so pinned bytes are exactly reproducible.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// writeExposition renders the families. Families are sorted by name
// and samples by label set; duplicates (same name and label set) are
// a programming error the lint test catches.
func writeExposition(w io.Writer, fams []family) error {
	sorted := append([]family(nil), fams...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].name < sorted[j].name })
	var b strings.Builder
	for _, f := range sorted {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		samples := append([]sample(nil), f.samples...)
		sort.SliceStable(samples, func(i, j int) bool { return samples[i].labels < samples[j].labels })
		for _, s := range samples {
			if s.labels == "" {
				fmt.Fprintf(&b, "%s %s\n", f.name, formatValue(s.value))
			} else {
				fmt.Fprintf(&b, "%s{%s} %s\n", f.name, s.labels, formatValue(s.value))
			}
		}
	}
	b.WriteString("# EOF\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// families builds one session's slice of the gauge page from one
// snapshot plus the committed what-if and cache counters — the only
// inputs, so a page is as consistent as its snapshots. Every label
// set leads with the session label. The family list (names, order,
// help strings) is identical for every session, which is what lets
// WriteMetrics merge sessions sample-wise.
func (sess *Session) families() []family {
	snap := sess.Snapshot()
	wst := sess.statsSnapshot()

	g := func(name, help string, samples ...sample) family {
		return family{name: name, help: help, typ: "gauge", samples: samples}
	}
	one := func(v float64) []sample {
		return []sample{{labels: labels("session", sess.id), value: v}}
	}

	perDC := func(get func(*DCSnapshot) float64) []sample {
		out := make([]sample, len(snap.DCs))
		for i := range snap.DCs {
			out[i] = sample{labels: labels("session", sess.id, "dc", snap.DCs[i].Name), value: get(&snap.DCs[i])}
		}
		return out
	}

	fams := []family{
		g("ntc_slot", "Completed evaluation slots (1 slot = 1 hour); monotone.", one(float64(snap.Slot))...),
		g("ntc_slots", "Total slots in the replayed evaluation period.", one(float64(snap.Slots))...),
		g("ntc_done", "1 once the replay has finished, else 0.", one(b2f(snap.Done))...),
		g("ntc_ingest", "1 on a live-ingestion session (replay gated on observed samples), else 0.", one(b2f(snap.Ingest))...),
		g("ntc_ingest_slots", "Observed evaluation slots ingested so far (0 on replay sessions); monotone.", one(float64(snap.Ingested))...),
		g("ntc_info", "Live scenario identity (value is always 1).", sample{
			labels: labels(
				"session", sess.id,
				"policy", snap.Scenario.Policy,
				"predictor", snap.Scenario.Predictor,
				"rebalance", snap.Scenario.Rebalance,
				"topology", snap.Scenario.Topology,
				"trace", snap.Scenario.TraceSpec,
				"transitions", transitionsLabel(snap.Scenario.Transitions),
			),
			value: 1,
		}),

		g("ntc_fleet_energy_mj", "Cumulative fleet facility energy (IT x PUE) in megajoules; monotone.", one(snap.EnergyMJ)...),
		g("ntc_fleet_slot_energy_mj", "Fleet facility energy of the last completed slot in megajoules.", one(snap.SlotEnergyMJ)...),
		g("ntc_fleet_ep_score", "Realized energy proportionality of the slot energies so far (1 - min/max).", one(snap.EPScore())...),
		g("ntc_fleet_active_servers", "Fleet powered-on servers at the last completed slot.", one(float64(snap.ActiveServers))...),
		g("ntc_fleet_violations", "Cumulative QoS violation-samples, migration downtime included; monotone.", one(float64(snap.Violations))...),
		g("ntc_fleet_latency_weighted_viol", "Cumulative WAN-latency-weighted violation-samples; monotone.", one(snap.LatencyWeightedViol)...),
		g("ntc_fleet_migrations", "Cumulative within-DC server moves; monotone.", one(float64(snap.Migrations))...),
		g("ntc_fleet_cross_dc_migrations", "Cumulative VMs moved between datacenters by the rebalancer; monotone.", one(float64(snap.CrossDCMigrations))...),
		g("ntc_carbon_operational_g", "Cumulative fleet operational carbon (facility energy priced at each DC's grid intensity) in gCO2eq; monotone.", one(snap.OperationalGCO2)...),
		g("ntc_carbon_embodied_g", "Cumulative fleet embodied carbon (amortized manufacturing carbon of powered-on servers) in gCO2eq; monotone.", one(snap.EmbodiedGCO2)...),

		g("ntc_dc_energy_mj", "Cumulative facility energy per datacenter in megajoules; monotone.",
			perDC(func(d *DCSnapshot) float64 { return d.EnergyMJ })...),
		g("ntc_dc_power_w", "Mean facility power over the last completed slot per datacenter, in watts.",
			perDC(func(d *DCSnapshot) float64 { return d.PowerW })...),
		g("ntc_dc_active_servers", "Powered-on servers per datacenter at the last completed slot.",
			perDC(func(d *DCSnapshot) float64 { return float64(d.ActiveServers) })...),
		g("ntc_dc_vms", "VMs currently dispatched to each datacenter.",
			perDC(func(d *DCSnapshot) float64 { return float64(d.VMs) })...),
		g("ntc_dc_violations", "Cumulative QoS violation-samples per datacenter; monotone.",
			perDC(func(d *DCSnapshot) float64 { return float64(d.Violations) })...),
		g("ntc_dc_latency_weighted_viol", "Cumulative WAN-latency-weighted violation-samples per datacenter; monotone.",
			perDC(func(d *DCSnapshot) float64 { return d.LatencyWeightedViol })...),
		g("ntc_dc_migrations", "Cumulative within-DC server moves per datacenter; monotone.",
			perDC(func(d *DCSnapshot) float64 { return float64(d.Migrations) })...),
		g("ntc_dc_cross_dc_migrations", "Cumulative VMs the rebalancer moved into each datacenter; monotone.",
			perDC(func(d *DCSnapshot) float64 { return float64(d.CrossDCMigrations) })...),
		g("ntc_dc_carbon_operational_g", "Cumulative operational carbon per datacenter in gCO2eq; monotone.",
			perDC(func(d *DCSnapshot) float64 { return d.OperationalGCO2 })...),
		g("ntc_dc_carbon_embodied_g", "Cumulative embodied carbon per datacenter in gCO2eq; monotone.",
			perDC(func(d *DCSnapshot) float64 { return d.EmbodiedGCO2 })...),

		g("ntc_whatif_requests", "What-if requests accepted on this session (forks included); monotone.", one(float64(wst.requests))...),
		g("ntc_whatif_rejected", "What-if requests rejected by validation; monotone.", one(float64(wst.rejected))...),
		g("ntc_whatif_scenarios", "Scenarios answered across this session's what-if requests; monotone.", one(float64(wst.scenarios))...),
		g("ntc_whatif_executed", "What-if scenarios that had to execute (cache misses); monotone.", one(float64(wst.executed))...),
		g("ntc_whatif_cache_hits", "What-if scenarios answered from the result cache; monotone.", one(float64(wst.cacheHits))...),
		g("ntc_whatif_forks", "Mid-replay fork what-ifs answered from carried state; monotone.", one(float64(wst.forks))...),

		g("ntc_cache_hits", "Result-store hits serving this session's what-ifs; monotone.", one(float64(wst.cacheHits))...),
		g("ntc_cache_misses", "This session's what-if scenarios the store could not answer; monotone.", one(float64(wst.executed))...),
		g("ntc_cache_writes", "Executed what-if rows persisted to the store for this session; monotone.", one(float64(wst.writes))...),
	}
	return fams
}

// WriteMetrics renders the exposition page: every live session's
// families merged sample-wise (the family list is position-identical
// across sessions), sessions in sorted id order.
func (s *Server) WriteMetrics(w io.Writer) error {
	var fams []family
	for _, sess := range s.sessionList() {
		sf := sess.families()
		if fams == nil {
			fams = sf
			continue
		}
		for i := range fams {
			fams[i].samples = append(fams[i].samples, sf[i].samples...)
		}
	}
	return writeExposition(w, fams)
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// transitionsLabel canonicalises the empty transition axis value to
// its registry name so the info series never carries an empty label.
func transitionsLabel(name string) string {
	if name == "" {
		return "none"
	}
	return name
}
