// Package topology models a fleet of heterogeneous datacenters behind
// a cross-DC dispatcher — the multi-datacenter axis of the study. The
// paper asks "consolidate or spread?" inside one datacenter; this
// package asks it across a fleet, where the global dispatch policy
// (which DC hosts which VMs) interacts with per-DC consolidation the
// same way subsystem-level power management interacts with node-level
// proportionality.
//
// A Fleet composes N datacenters (DCSpec), each with its own server
// platform ("ntc" or "conventional"), pool size, PUE, dispatch share
// and latency. Fleets come from a spec string of the form
//
//	[dispatcher@]ref        e.g. "triad", "greedy-proportional@triad",
//	                             "follow-the-load@fleet.json"
//
// parsed by ParseSpec: ref is a builtin fleet name (BuiltinFleets) or
// a path to a JSON fleet file (any ref ending in ".json"; see
// docs/TOPOLOGY.md for the format). The dispatcher prefix selects the
// cross-DC dispatch policy (DispatcherNames) and defaults to
// "uniform".
//
// Run executes one fleet workload: the dispatcher partitions the
// trace's VMs across the datacenters, every datacenter runs through
// internal/dcsim unchanged (its own server model, allocation-policy
// instance and pool bound), and the per-DC results are aggregated
// into fleet-level energy (PUE-weighted), energy-proportionality
// score, QoS violations and migration counts.
//
// Everything here is deterministic: dispatch is a pure function of
// the fleet spec and the trace, so fleet sweeps inherit the sweep
// engine's byte-determinism and caching contracts. Spec provides the
// content fingerprint (file path + content hash for file-backed
// fleets) that the incremental result cache keys on.
package topology

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/units"
)

// DCSpec describes one datacenter of a fleet.
type DCSpec struct {
	// Name labels the DC in results; unique within a fleet.
	Name string `json:"name"`

	// Servers is the DC's physical pool. 0 means "relative": the DC
	// receives its Share of the scenario's fleet-wide pool when the
	// fleet is resolved (see Resolve). Builtin fleets are relative so
	// they scale with the scenario.
	Servers int `json:"servers,omitempty"`

	// PUE is the facility's power usage effectiveness; fleet energy
	// multiplies each DC's IT energy by it. 0 defaults to 1.0.
	PUE float64 `json:"pue,omitempty"`

	// Share is the DC's dispatch weight (uniform and follow-the-load
	// dispatch) and its fraction of a relative fleet's pool. 0 defaults
	// to 1 unless ShareSet records a deliberate zero — a drained DC
	// that stays in the fleet (its fixed pool keeps reporting) but
	// receives no VMs from any dispatcher and no slice of a relative
	// pool.
	Share float64 `json:"share,omitempty"`

	// ShareSet reports whether Share was explicitly present in the
	// DC's JSON (or set by a caller building specs in code) — the same
	// presence tracking StaticPowerSet provides, so an explicit
	// `"share": 0` drains the DC instead of being clobbered to the
	// default weight 1.
	ShareSet bool `json:"-"`

	// LatencyMs is the DC's network distance from the load source;
	// follow-the-load dispatch discounts a DC's weight by it, and the
	// latency-weighted QoS metric scales violations by it. 0 defaults
	// to 10 ms unless LatencyMsSet records a deliberate zero (a
	// co-located DC whose violations carry no WAN weight).
	LatencyMs float64 `json:"latency_ms,omitempty"`

	// LatencyMsSet reports whether LatencyMs was explicitly present
	// in the DC's JSON (or set by a caller building specs in code) —
	// the same presence tracking StaticPowerSet provides, so an
	// explicit `"latency_ms": 0` survives normalisation.
	LatencyMsSet bool `json:"-"`

	// Server selects the DC's server platform: "ntc" (default) or
	// "conventional" (the Intel E5-2620 class comparison machine).
	Server string `json:"server,omitempty"`

	// StaticPowerW overrides the per-server static platform power
	// (motherboard/fan/disk) for this DC; 0 inherits the scenario's
	// override (or the model default) unless StaticPowerSet records
	// that the zero was written deliberately.
	StaticPowerW float64 `json:"static_power_w,omitempty"`

	// StaticPowerSet reports whether StaticPowerW was explicitly
	// present in the DC's JSON (or set by a caller building specs in
	// code). It is what lets a fleet file say `"static_power_w": 0`
	// and mean it — a deliberately zero-static-power DC — instead of
	// being clobbered by the scenario default.
	StaticPowerSet bool `json:"-"`

	// GridIntensity is the DC's grid carbon intensity in gCO2eq/kWh —
	// a scalar mix or a 24-hour diurnal profile. Empty defaults to
	// DefaultGridIntensity unless GridIntensitySet records a
	// deliberate zero-carbon grid.
	GridIntensity IntensityProfile `json:"grid_intensity,omitempty"`

	// GridIntensitySet reports whether grid_intensity was explicitly
	// present in the DC's JSON (or set by a caller building specs in
	// code) — the same presence tracking StaticPowerSet provides, so
	// an explicit `"grid_intensity": 0` (a zero-carbon grid) is not
	// clobbered by the nonzero default.
	GridIntensitySet bool `json:"-"`

	// EmbodiedKgPerVCPU and EmbodiedKgPerGB are the server's embodied
	// manufacturing carbon, kgCO2eq per vCPU and per GB of DRAM,
	// amortized over EmbodiedAmortYears and charged per powered-on
	// server-hour. 0 (the default) disables embodied accounting.
	EmbodiedKgPerVCPU float64 `json:"embodied_kg_per_vcpu,omitempty"`
	EmbodiedKgPerGB   float64 `json:"embodied_kg_per_gb,omitempty"`
}

// dcSpecJSON mirrors DCSpec with a pointer static-power field, so
// decoding can tell an explicit `"static_power_w": 0` from an absent
// one (see StaticPowerSet).
type dcSpecJSON struct {
	Name              string            `json:"name"`
	Servers           int               `json:"servers,omitempty"`
	PUE               float64           `json:"pue,omitempty"`
	Share             *float64          `json:"share,omitempty"`
	LatencyMs         *float64          `json:"latency_ms,omitempty"`
	Server            string            `json:"server,omitempty"`
	StaticPowerW      *float64          `json:"static_power_w,omitempty"`
	GridIntensity     *IntensityProfile `json:"grid_intensity,omitempty"`
	EmbodiedKgPerVCPU float64           `json:"embodied_kg_per_vcpu,omitempty"`
	EmbodiedKgPerGB   float64           `json:"embodied_kg_per_gb,omitempty"`
}

// UnmarshalJSON decodes a DC spec, tracking static-power and latency
// presence (both have meaningful explicit zeros the defaulting must
// not clobber) and rejecting unknown fields (ParseFleetJSON's outer
// decoder cannot see inside a custom unmarshaler, so the strictness
// is re-applied here).
func (d *DCSpec) UnmarshalJSON(data []byte) error {
	var raw dcSpecJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&raw); err != nil {
		return err
	}
	*d = DCSpec{Name: raw.Name, Servers: raw.Servers, PUE: raw.PUE,
		Server: raw.Server, EmbodiedKgPerVCPU: raw.EmbodiedKgPerVCPU,
		EmbodiedKgPerGB: raw.EmbodiedKgPerGB}
	if raw.Share != nil {
		d.Share = *raw.Share
		d.ShareSet = true
	}
	if raw.LatencyMs != nil {
		d.LatencyMs = *raw.LatencyMs
		d.LatencyMsSet = true
	}
	if raw.StaticPowerW != nil {
		d.StaticPowerW = *raw.StaticPowerW
		d.StaticPowerSet = true
	}
	if raw.GridIntensity != nil {
		d.GridIntensity = *raw.GridIntensity
		d.GridIntensitySet = true
	}
	return nil
}

// Fleet is a set of datacenters behind one dispatch policy.
type Fleet struct {
	// Name labels the fleet ("single", "triad", or the file's name).
	Name string `json:"name"`

	// Dispatcher is the cross-DC dispatch policy; see DispatcherNames.
	// Empty defaults to "uniform".
	Dispatcher string `json:"dispatcher,omitempty"`

	// DCs are the fleet's datacenters in spec order (the order per-DC
	// results are reported in).
	DCs []DCSpec `json:"dcs"`
}

// DispatcherNames lists the cross-DC dispatch policies.
func DispatcherNames() []string {
	return []string{"uniform", "greedy-proportional", "follow-the-load", "carbon-greedy"}
}

// BuiltinFleets lists the built-in fleet names.
func BuiltinFleets() []string { return []string{"single", "triad", "triad-carbon"} }

// builtinFleet materialises a built-in fleet. Builtins are relative
// (Servers 0): their pools are shares of the scenario's MaxServers.
func builtinFleet(name string) (Fleet, bool) {
	switch name {
	case "single":
		// The degenerate one-DC fleet: every scenario without an
		// explicit topology runs through it, and it reproduces the
		// plain single-datacenter simulation exactly (PUE 1, full
		// share, NTC servers).
		return Fleet{Name: "single", DCs: []DCSpec{
			{Name: "dc0", Share: 1, PUE: 1.0},
		}}, true
	case "triad":
		// Three heterogeneous DCs: a large efficient NTC core site, a
		// mid-size metro site with a heavier static platform, and a
		// small low-latency edge site on conventional servers.
		return Fleet{Name: "triad", DCs: []DCSpec{
			{Name: "core", Share: 0.5, PUE: 1.12, LatencyMs: 40},
			{Name: "metro", Share: 0.3, PUE: 1.25, LatencyMs: 15, StaticPowerW: 25},
			{Name: "edge", Share: 0.2, PUE: 1.5, LatencyMs: 5, Server: "conventional"},
		}}, true
	case "triad-carbon":
		// The triad's carbon study variant: three NTC sites whose grids
		// differ 4-8x in carbon intensity and move in anti-phase across
		// the day — a solar-heavy grid (clean at midday, dirty at
		// night), a wind-heavy grid (the opposite), and a coal-fired
		// baseload grid that never moves. Carbon-aware dispatch should
		// follow the sun across the first two; static uniform dispatch
		// pays the share-weighted average.
		return Fleet{Name: "triad-carbon", DCs: []DCSpec{
			{Name: "solar", Share: 0.4, PUE: 1.15, LatencyMs: 30,
				GridIntensity: dayNightProfile(60, 650), GridIntensitySet: true,
				EmbodiedKgPerVCPU: 25, EmbodiedKgPerGB: 1.5},
			{Name: "wind", Share: 0.35, PUE: 1.2, LatencyMs: 20,
				GridIntensity: dayNightProfile(500, 90), GridIntensitySet: true,
				EmbodiedKgPerVCPU: 25, EmbodiedKgPerGB: 1.5},
			{Name: "coal", Share: 0.25, PUE: 1.1, LatencyMs: 10,
				GridIntensity: IntensityProfile{700}, GridIntensitySet: true,
				EmbodiedKgPerVCPU: 25, EmbodiedKgPerGB: 1.5},
		}}, true
	default:
		return Fleet{}, false
	}
}

// dayNightProfile builds a 24-hour intensity profile: `day` gCO2eq/kWh
// during hours [8, 18), `night` otherwise.
func dayNightProfile(day, night float64) IntensityProfile {
	p := make(IntensityProfile, 24)
	for h := range p {
		if h >= 8 && h < 18 {
			p[h] = day
		} else {
			p[h] = night
		}
	}
	return p
}

// ServerPlatforms lists the per-DC server platform names.
func ServerPlatforms() []string { return []string{"ntc", "conventional"} }

// ServerPlatform resolves a DCSpec server name into its power model
// and performance platform, applying an optional static-power
// override (motherboard/fan/disk watts; 0 keeps the model default).
func ServerPlatform(name string, staticW float64) (*power.ServerModel, *platform.Platform, error) {
	var m *power.ServerModel
	var p *platform.Platform
	switch name {
	case "", "ntc":
		m, p = power.NTCServer(), platform.NTCServer()
	case "conventional":
		m, p = power.IntelE5_2620(), platform.IntelX5650()
	default:
		return nil, nil, fmt.Errorf("topology: unknown server platform %q (known: %s)",
			name, strings.Join(ServerPlatforms(), ", "))
	}
	if staticW > 0 {
		m.Motherboard = units.Watts(staticW)
	}
	return m, p, nil
}

// serverPlatform resolves the DC's server platform with its effective
// static power: a positive StaticPowerW overrides the model default,
// and an explicitly-set zero (StaticPowerSet) forces a zero-static
// platform — the "deliberately zero static power" case a plain 0
// cannot express through ServerPlatform.
func (d DCSpec) serverPlatform() (*power.ServerModel, *platform.Platform, error) {
	m, p, err := ServerPlatform(d.Server, d.StaticPowerW)
	if err != nil {
		return nil, nil, err
	}
	if d.StaticPowerSet && d.StaticPowerW == 0 {
		m.Motherboard = 0
	}
	return m, p, nil
}

// Validate checks a fleet's structural consistency.
func (f Fleet) Validate() error {
	if len(f.DCs) == 0 {
		return fmt.Errorf("topology: fleet %q has no datacenters", f.Name)
	}
	if f.Dispatcher != "" && !knownDispatcher(f.Dispatcher) {
		return fmt.Errorf("topology: fleet %q: unknown dispatcher %q (known: %s)",
			f.Name, f.Dispatcher, strings.Join(DispatcherNames(), ", "))
	}
	seen := map[string]bool{}
	for i, dc := range f.DCs {
		if dc.Name == "" {
			return fmt.Errorf("topology: fleet %q: DC %d has no name", f.Name, i)
		}
		if seen[dc.Name] {
			return fmt.Errorf("topology: fleet %q: duplicate DC name %q", f.Name, dc.Name)
		}
		seen[dc.Name] = true
		if dc.Servers < 0 {
			return fmt.Errorf("topology: fleet %q: DC %q: Servers must be >= 0, got %d", f.Name, dc.Name, dc.Servers)
		}
		if dc.PUE != 0 && dc.PUE < 1 {
			return fmt.Errorf("topology: fleet %q: DC %q: PUE %g < 1", f.Name, dc.Name, dc.PUE)
		}
		if dc.Share < 0 || dc.LatencyMs < 0 || dc.StaticPowerW < 0 {
			return fmt.Errorf("topology: fleet %q: DC %q: negative share/latency/static power", f.Name, dc.Name)
		}
		if err := dc.GridIntensity.validate(); err != nil {
			return fmt.Errorf("topology: fleet %q: DC %q: %w", f.Name, dc.Name, err)
		}
		if dc.EmbodiedKgPerVCPU < 0 || dc.EmbodiedKgPerGB < 0 {
			return fmt.Errorf("topology: fleet %q: DC %q: negative embodied carbon", f.Name, dc.Name)
		}
		if _, _, err := ServerPlatform(dc.Server, 0); err != nil {
			return fmt.Errorf("topology: fleet %q: DC %q: %w", f.Name, dc.Name, err)
		}
	}
	// At least one DC must be dispatchable: a DC with an explicit
	// `"share": 0` is drained (receives no VMs), and a fleet where
	// every DC is drained has nowhere to put the workload.
	dispatchable := false
	for _, dc := range f.DCs {
		if dc.Share > 0 || !dc.ShareSet {
			dispatchable = true
			break
		}
	}
	if !dispatchable {
		return fmt.Errorf("topology: fleet %q: every DC has share 0 — no dispatchable datacenter", f.Name)
	}
	return nil
}

func knownDispatcher(name string) bool {
	for _, d := range DispatcherNames() {
		if d == name {
			return true
		}
	}
	return false
}

// normalized fills the per-DC defaults (PUE 1.0, Share 1, 10 ms
// latency, uniform dispatch) so the dispatchers and the runner never
// see accidental zero values. An explicit `"share": 0` (ShareSet) is
// not an accident — it survives as a drained DC the dispatchers skip.
func (f Fleet) normalized() Fleet {
	if f.Dispatcher == "" {
		f.Dispatcher = "uniform"
	}
	dcs := make([]DCSpec, len(f.DCs))
	copy(dcs, f.DCs)
	for i := range dcs {
		if dcs[i].PUE == 0 {
			dcs[i].PUE = 1.0
		}
		if dcs[i].Share == 0 && !dcs[i].ShareSet {
			dcs[i].Share = 1
		}
		if dcs[i].LatencyMs == 0 && !dcs[i].LatencyMsSet {
			dcs[i].LatencyMs = 10
		}
		if len(dcs[i].GridIntensity) == 0 && !dcs[i].GridIntensitySet {
			dcs[i].GridIntensity = IntensityProfile{DefaultGridIntensity}
		}
	}
	f.DCs = dcs
	return f
}

// Resolve normalizes the fleet and sizes its relative DCs (Servers
// 0) as Share-proportional fractions of maxServers, using largest
// remainders so the resolved pools sum exactly to maxServers. With
// maxServers 0 (the unbounded pool) relative DCs stay unbounded.
func (f Fleet) Resolve(maxServers int) Fleet {
	f = f.normalized()
	if maxServers <= 0 {
		return f
	}
	var relIdx []int
	fixed := 0
	total := 0.0
	for i, dc := range f.DCs {
		if dc.Servers > 0 {
			fixed += dc.Servers
			continue
		}
		if dc.Share <= 0 {
			// A drained relative DC hosts nothing: it gets no slice of
			// the pool and must not claim the one-server floor.
			continue
		}
		relIdx = append(relIdx, i)
		total += dc.Share
	}
	if len(relIdx) == 0 || total <= 0 {
		return f
	}
	pool := maxServers - fixed
	if pool < len(relIdx) {
		pool = len(relIdx) // every DC gets at least one server
	}
	assigned := 0
	type rem struct {
		idx  int
		frac float64
	}
	rems := make([]rem, 0, len(relIdx))
	for _, i := range relIdx {
		exact := float64(pool) * f.DCs[i].Share / total
		n := int(exact)
		// A resolved DC must own at least one server: Servers 0 means
		// "unbounded" everywhere downstream (dcsim's pool cap, the
		// greedy dispatcher's capacity), so a tiny-share DC rounding
		// to zero would silently become an unlimited datacenter.
		if n < 1 {
			n = 1
		}
		f.DCs[i].Servers = n
		assigned += n
		rems = append(rems, rem{idx: i, frac: exact - float64(n)})
	}
	// Hand leftover servers to the largest remainders (ties go to the
	// earlier DC — deterministic).
	for assigned < pool {
		best := -1
		for j := range rems {
			if best < 0 || rems[j].frac > rems[best].frac {
				best = j
			}
		}
		f.DCs[rems[best].idx].Servers++
		rems[best].frac = -1
		assigned++
	}
	// If the one-server floors overshot the pool (skewed shares at a
	// tiny pool), take the excess back from the largest DCs, never
	// below one server. Feasible because pool >= len(relIdx).
	for assigned > pool {
		big := -1
		for _, i := range relIdx {
			if f.DCs[i].Servers > 1 && (big < 0 || f.DCs[i].Servers > f.DCs[big].Servers) {
				big = i
			}
		}
		f.DCs[big].Servers--
		assigned--
	}
	return f
}

// Spec is a parsed-but-not-loaded topology spec, mirroring how
// trace.Source describes ingestion backends: parsing validates the
// shape, Load materialises the fleet (reading the file for file
// specs), and Fingerprint gives the content-derived cache key.
type Spec struct {
	// Dispatcher is the cross-DC policy ("" in the spec string means
	// uniform; kept verbatim here so String round-trips).
	Dispatcher string

	// Ref is the builtin fleet name or the JSON file path.
	Ref string

	// IsFile reports whether Ref is a fleet file.
	IsFile bool

	// Content, when non-nil on a file spec, is used instead of reading
	// Ref — the shipped-input form built by WithContent. Fingerprints
	// keep Ref as their location component so they compare equal to
	// the file spec holding the same bytes.
	Content []byte
}

// ParseSpec parses "[dispatcher@]ref" without touching the
// filesystem. Ref is a builtin fleet name, or a fleet-file path when
// it ends in ".json" (missing files surface at Load time, like trace
// files, so one bad scenario cannot invalidate a whole grid).
func ParseSpec(spec string) (Spec, error) {
	s := Spec{Ref: spec}
	if i := strings.Index(spec, "@"); i >= 0 {
		s.Dispatcher, s.Ref = spec[:i], spec[i+1:]
		if !knownDispatcher(s.Dispatcher) {
			return Spec{}, fmt.Errorf("topology: unknown dispatcher %q in spec %q (known: %s)",
				s.Dispatcher, spec, strings.Join(DispatcherNames(), ", "))
		}
	}
	if s.Ref == "" {
		return Spec{}, fmt.Errorf("topology: empty fleet ref in spec %q", spec)
	}
	if strings.HasSuffix(s.Ref, ".json") {
		s.IsFile = true
		return s, nil
	}
	if _, ok := builtinFleet(s.Ref); !ok {
		return Spec{}, fmt.Errorf("topology: unknown fleet %q (builtins: %s; file fleets must end in .json)",
			s.Ref, strings.Join(BuiltinFleets(), ", "))
	}
	return s, nil
}

// String returns the canonical spec string ParseSpec parses back.
func (s Spec) String() string {
	if s.Dispatcher == "" {
		return s.Ref
	}
	return s.Dispatcher + "@" + s.Ref
}

// WithContent returns a copy of the spec that loads and fingerprints
// from data instead of the filesystem (see Content). Only meaningful
// for file specs; builtins ignore it.
func (s Spec) WithContent(data []byte) Spec {
	s.Content = data
	return s
}

// data returns a file spec's bytes: the attached Content when there
// is one, otherwise the file's.
func (s Spec) data() ([]byte, error) {
	if s.Content != nil {
		return s.Content, nil
	}
	return os.ReadFile(s.Ref)
}

// Load materialises and validates the fleet, applying the spec's
// dispatcher override. The returned fleet is not yet resolved —
// relative DCs keep Servers 0 until Resolve sees the scenario pool.
func (s Spec) Load() (Fleet, error) {
	var f Fleet
	if s.IsFile {
		data, err := s.data()
		if err != nil {
			return Fleet{}, fmt.Errorf("topology: reading fleet file: %w", err)
		}
		if f, err = ParseFleetJSON(data); err != nil {
			return Fleet{}, fmt.Errorf("topology: %s: %w", s.Ref, err)
		}
		if f.Name == "" {
			f.Name = s.Ref
		}
	} else {
		f, _ = builtinFleet(s.Ref)
	}
	if s.Dispatcher != "" {
		f.Dispatcher = s.Dispatcher
	}
	if err := f.Validate(); err != nil {
		return Fleet{}, err
	}
	return f, nil
}

// Fingerprint returns a stable key for the fleet definition's
// content: builtins are identified by name (code changes are covered
// by the sweep's result schema version), file fleets by path plus a
// content hash so an edited fleet file invalidates cached results.
// The dispatcher lives in the scenario identity, not here.
func (s Spec) Fingerprint() (string, error) {
	if !s.IsFile {
		return "topology:builtin:" + s.Ref, nil
	}
	data, err := s.data()
	if err != nil {
		return "", fmt.Errorf("topology: fingerprinting %s: %w", s.Ref, err)
	}
	sum := sha256.Sum256(data)
	return fmt.Sprintf("topology:file:%s:%s", s.Ref, hex.EncodeToString(sum[:16])), nil
}

// ParseFleetJSON decodes a fleet definition, rejecting unknown fields
// and trailing data so typos in hand-written fleet files surface
// early. Decode errors — syntax errors, unknown fields, malformed
// intensity profiles — carry the line number of the offending input so
// a bad entry in a long hand-written fleet file is findable: inside a
// DC entry, the line of the member that fails.
func ParseFleetJSON(data []byte) (Fleet, error) {
	// The outer DCs shadows Fleet's: the entries stay raw so each is
	// decoded, and its errors placed, on its own.
	var raw struct {
		Fleet
		DCs []json.RawMessage `json:"dcs"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&raw); err != nil {
		off := dec.InputOffset()
		switch e := err.(type) {
		case *json.SyntaxError:
			off = e.Offset
		case *json.UnmarshalTypeError:
			off = e.Offset
		}
		return Fleet{}, fmt.Errorf("parsing fleet (line %d): %w", lineOf(data, off), err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Fleet{}, fmt.Errorf("parsing fleet (line %d): trailing data after the fleet object",
			lineOf(data, dec.InputOffset()))
	}
	f := raw.Fleet
	if raw.DCs != nil {
		f.DCs = make([]DCSpec, len(raw.DCs))
	}
	var from int64
	for i, entry := range raw.DCs {
		// Entries are verbatim and in input order: each is the first
		// copy of its bytes after the previous entry.
		start := from
		if k := bytes.Index(data[from:], entry); k >= 0 {
			start += int64(k)
		}
		from = start + int64(len(entry))
		if err := f.DCs[i].UnmarshalJSON(entry); err != nil {
			off, err := memberErrorAt(entry, err)
			return Fleet{}, fmt.Errorf("parsing fleet (line %d): %w", lineOf(data, start+off), err)
		}
	}
	return f, nil
}

// memberErrorAt places err, the error decoding the DC entry obj
// raised, at the first member of obj that fails to decode on its own:
// it returns the offset just past that member's key with the member's
// error, or 0 and err when no single member fails (obj is not an
// object).
func memberErrorAt(obj []byte, err error) (int64, error) {
	dec := json.NewDecoder(bytes.NewReader(obj))
	if tok, terr := dec.Token(); terr != nil || tok != json.Delim('{') {
		return 0, err
	}
	for dec.More() {
		tok, terr := dec.Token()
		key, _ := tok.(string)
		at := dec.InputOffset()
		var val json.RawMessage
		if terr != nil || dec.Decode(&val) != nil {
			break
		}
		one, _ := json.Marshal(map[string]json.RawMessage{key: val})
		var d DCSpec
		if e := d.UnmarshalJSON(one); e != nil {
			return at, e
		}
	}
	return 0, err
}

// lineOf maps a byte offset into data to its 1-based line number.
func lineOf(data []byte, off int64) int {
	if off > int64(len(data)) {
		off = int64(len(data))
	}
	return 1 + bytes.Count(data[:off], []byte("\n"))
}
