package topology

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/dcsim"
)

func TestIntensityProfileAt(t *testing.T) {
	var nilP IntensityProfile
	if got := nilP.At(5); got != 0 {
		t.Errorf("nil profile At(5) = %g, want 0", got)
	}
	scalar := IntensityProfile{420}
	for _, h := range []int{0, 7, 23, 24, 100} {
		if got := scalar.At(h); got != 420 {
			t.Errorf("scalar At(%d) = %g, want 420", h, got)
		}
	}
	hourly := dayNightProfile(50, 600)
	if got := hourly.At(12); got != 50 {
		t.Errorf("day hour = %g, want 50", got)
	}
	if got := hourly.At(2); got != 600 {
		t.Errorf("night hour = %g, want 600", got)
	}
	// Hours beyond one day wrap: slot 36 is hour 12 of day 2.
	if got := hourly.At(36); got != 50 {
		t.Errorf("At(36) = %g, want the wrapped day value 50", got)
	}
}

// TestGridIntensityZeroSurvivesJSON pins the presence-tracking
// contract for the carbon axis, mirroring the share-zero fix: an
// explicit `"grid_intensity": 0` is a zero-carbon grid and must not be
// clobbered by the nonzero default, while an absent field inherits
// DefaultGridIntensity so legacy fleets start reporting operational
// carbon without edits.
func TestGridIntensityZeroSurvivesJSON(t *testing.T) {
	f, err := ParseFleetJSON([]byte(
		`{"name":"f","dcs":[{"name":"hydro","grid_intensity":0},{"name":"legacy"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if !f.DCs[0].GridIntensitySet || f.DCs[0].GridIntensity.At(0) != 0 {
		t.Errorf("explicit grid_intensity 0 decoded as {%v, set=%v}, want {0, true}",
			f.DCs[0].GridIntensity, f.DCs[0].GridIntensitySet)
	}
	if f.DCs[1].GridIntensitySet {
		t.Error("absent grid_intensity decoded as explicitly set")
	}
	n := f.normalized()
	if got := n.DCs[0].GridIntensity.At(0); got != 0 {
		t.Errorf("normalisation clobbered the explicit zero intensity to %g", got)
	}
	if got := n.DCs[1].GridIntensity.At(0); got != DefaultGridIntensity {
		t.Errorf("absent intensity normalised to %g, want the default %g", got, DefaultGridIntensity)
	}
	if err := f.Validate(); err != nil {
		t.Errorf("zero-carbon fleet must validate, got: %v", err)
	}
}

// TestIntensityProfileJSONRoundTrip pins both encoded forms: a scalar
// writes back as a bare number (the form it was written in) and a
// 24-hour profile round-trips element for element.
func TestIntensityProfileJSONRoundTrip(t *testing.T) {
	out, err := json.Marshal(IntensityProfile{700})
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "700" {
		t.Errorf("scalar profile marshals as %s, want the bare number 700", out)
	}

	hourly := dayNightProfile(60, 650)
	out, err = json.Marshal(hourly)
	if err != nil {
		t.Fatal(err)
	}
	var back IntensityProfile
	if err := json.Unmarshal(out, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 24 {
		t.Fatalf("round-tripped profile has %d values, want 24", len(back))
	}
	for h := range back {
		if back[h] != hourly[h] {
			t.Errorf("hour %d round-tripped as %g, want %g", h, back[h], hourly[h])
		}
	}
}

// TestMalformedIntensityProfilesFailLoudly pins the validation
// satellite: wrong-shaped profiles fail at parse time with the line
// number of the offending entry, and negative intensities are caught
// by Validate.
func TestMalformedIntensityProfilesFailLoudly(t *testing.T) {
	cases := []struct {
		name, fleetJSON, want string
	}{
		{"short profile",
			"{\"name\":\"f\",\"dcs\":[\n{\"name\":\"a\",\n\"grid_intensity\":[1,2,3]}]}",
			"want 24"},
		{"non-number",
			"{\"name\":\"f\",\"dcs\":[\n{\"name\":\"a\",\n\"grid_intensity\":\"coal\"}]}",
			"grid_intensity must be a number or an array"},
	}
	for _, c := range cases {
		_, err := ParseFleetJSON([]byte(c.fleetJSON))
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
		if !strings.Contains(err.Error(), "line ") {
			t.Errorf("%s: error %q carries no line number", c.name, err)
		}
	}

	neg := Fleet{Name: "f", DCs: []DCSpec{
		{Name: "a", GridIntensity: IntensityProfile{-5}},
	}}
	if err := neg.Validate(); err == nil ||
		!strings.Contains(err.Error(), "negative") {
		t.Errorf("negative intensity validated, err = %v", err)
	}
	odd := Fleet{Name: "f", DCs: []DCSpec{
		{Name: "a", GridIntensity: IntensityProfile{1, 2, 3}},
	}}
	if err := odd.Validate(); err == nil ||
		!strings.Contains(err.Error(), "24") {
		t.Errorf("3-value profile validated, err = %v", err)
	}
}

// TestCarbonGreedyFollowsTheSun pins the dispatcher's ranking on the
// triad-carbon builtin: at noon the solar site's grid is cleanest
// (PUE×intensity 1.15×60) so it fills first; at midnight the wind
// site (1.2×90) wins and solar — priced at its dirty night mix — is
// avoided. The hour argument is what the epoch rebalancer varies, so
// this is the static half of follow-the-sun.
func TestCarbonGreedyFollowsTheSun(t *testing.T) {
	tr := testTrace(t, 3, 12, 1)
	f, err := Spec{Dispatcher: "carbon-greedy", Ref: "triad-carbon"}.Load()
	if err != nil {
		t.Fatal(err)
	}
	// Unresolved builtins are unbounded, so the whole population lands
	// in the top-ranked DC — the ranking is directly observable.
	noon, err := DispatchAt(f, tr, 0, 12)
	if err != nil {
		t.Fatal(err)
	}
	assertPartition(t, noon, 12)
	if len(noon[0]) != 12 {
		t.Errorf("noon dispatch = solar:%d wind:%d coal:%d, want all 12 on solar",
			len(noon[0]), len(noon[1]), len(noon[2]))
	}
	night, err := DispatchAt(f, tr, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	assertPartition(t, night, 12)
	if len(night[1]) != 12 {
		t.Errorf("midnight dispatch = solar:%d wind:%d coal:%d, want all 12 on wind",
			len(night[0]), len(night[1]), len(night[2]))
	}
}

// TestRunCarbonAccounting pins the accumulators against the published
// definition: operational carbon is each slot's facility energy in kWh
// priced at the grid intensity of that hour of day, embodied carbon is
// powered-on server-hours × the amortized manufacturing grams. The
// expectation is recomputed from the run's own slot series with the
// same arithmetic, so the equality is exact.
func TestRunCarbonAccounting(t *testing.T) {
	tr := testTrace(t, 9, 24, 2)
	ps, err := dcsim.Predict(tr, nil, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := Fleet{Name: "carbon1", DCs: []DCSpec{{
		Name:              "dc0",
		PUE:               1.2,
		GridIntensity:     dayNightProfile(100, 900),
		GridIntensitySet:  true,
		EmbodiedKgPerVCPU: 25,
		EmbodiedKgPerGB:   1.5,
	}}}
	cfg := Config{
		Fleet:       f,
		Trace:       tr,
		Predictions: ps,
		HistoryDays: 1,
		EvalDays:    1,
		MaxServers:  24,
		NewPolicy:   newTestPolicy,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalEnergyMJ <= 0 || res.OperationalGCO2 <= 0 || res.EmbodiedGCO2 <= 0 {
		t.Fatalf("degenerate run: energy %g, op %g, emb %g",
			res.TotalEnergyMJ, res.OperationalGCO2, res.EmbodiedGCO2)
	}

	dc, spec := res.DCs[0], res.Fleet.DCs[0]
	m, _, err := spec.serverPlatform()
	if err != nil {
		t.Fatal(err)
	}
	ci := dcCarbonOf(spec, m)
	var op, emb float64
	for s, slot := range replayDC(t, cfg, spec, allVMs(tr), 0, 0) {
		op += slot.Energy.MJ() * spec.PUE / mjPerKWh * ci.intensity.At(s%24)
		emb += float64(slot.ActiveServers) * ci.gPerServerHour
	}
	if dc.OperationalGCO2 != op || res.OperationalGCO2 != op {
		t.Errorf("operational = %g (fleet %g), recomputed %g",
			dc.OperationalGCO2, res.OperationalGCO2, op)
	}
	if dc.EmbodiedGCO2 != emb || res.EmbodiedGCO2 != emb {
		t.Errorf("embodied = %g (fleet %g), recomputed %g",
			dc.EmbodiedGCO2, res.EmbodiedGCO2, emb)
	}
	// The amortization constant itself: (16 vCPU × 25 kg + GB × 1.5 kg)
	// over 4 years, in grams per server-hour.
	kg := float64(m.NumCores())*spec.EmbodiedKgPerVCPU + m.MemGB()*spec.EmbodiedKgPerGB
	if want := kg * 1000 / (EmbodiedAmortYears * 365 * 24); ci.gPerServerHour != want {
		t.Errorf("gPerServerHour = %g, want %g", ci.gPerServerHour, want)
	}
}

// TestZeroCarbonFieldsZeroCarbon pins the backward-compatibility leg:
// a fleet with an explicit zero-carbon grid and no embodied
// coefficients burns energy but reports exactly zero grams — the
// "carbon fields zeroed" half of the v4 bit-exactness contract.
func TestZeroCarbonFieldsZeroCarbon(t *testing.T) {
	tr := testTrace(t, 11, 16, 2)
	ps, err := dcsim.Predict(tr, nil, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := Fleet{Name: "zc", DCs: []DCSpec{
		{Name: "dc0", GridIntensity: IntensityProfile{0}, GridIntensitySet: true},
	}}
	res, err := Run(Config{
		Fleet:       f,
		Trace:       tr,
		Predictions: ps,
		HistoryDays: 1,
		EvalDays:    1,
		MaxServers:  16,
		NewPolicy:   newTestPolicy,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalEnergyMJ <= 0 {
		t.Fatal("run burned no energy; the zero-carbon assertion is vacuous")
	}
	if res.OperationalGCO2 != 0 || res.EmbodiedGCO2 != 0 {
		t.Errorf("zero-carbon fleet reported op %g / emb %g grams, want exactly 0",
			res.OperationalGCO2, res.EmbodiedGCO2)
	}
}

// TestStepperCarbonMatchesBatch pins the incremental path: summing the
// per-slot carbon of a live stepper reproduces the batch Run's totals
// exactly (the same contract the energy series already carries).
func TestStepperCarbonMatchesBatch(t *testing.T) {
	tr := testTrace(t, 13, 18, 2)
	ps, err := dcsim.Predict(tr, nil, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := Spec{Dispatcher: "carbon-greedy", Ref: "triad-carbon"}.Load()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Fleet:       fleet,
		Trace:       tr,
		Predictions: ps,
		HistoryDays: 1,
		EvalDays:    1,
		MaxServers:  18,
		NewPolicy:   newTestPolicy,
		Rebalance:   RebalanceSpec{EverySlots: 6},
	}
	batch, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStepper(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var op, emb float64
	for !st.Done() {
		step, err := st.Step()
		if err != nil {
			t.Fatal(err)
		}
		var dcOp, dcEmb float64
		for _, d := range step.DCs {
			dcOp += d.OperationalGCO2
			dcEmb += d.EmbodiedGCO2
		}
		if dcOp != step.OperationalGCO2 || dcEmb != step.EmbodiedGCO2 {
			t.Fatalf("slot %d: per-DC carbon %g/%g does not sum to the slot's %g/%g",
				step.Slot, dcOp, dcEmb, step.OperationalGCO2, step.EmbodiedGCO2)
		}
		op += step.OperationalGCO2
		emb += step.EmbodiedGCO2
	}
	if op != batch.OperationalGCO2 || emb != batch.EmbodiedGCO2 {
		t.Errorf("stepped carbon %g/%g != batch %g/%g",
			op, emb, batch.OperationalGCO2, batch.EmbodiedGCO2)
	}
	res, err := st.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.OperationalGCO2 != batch.OperationalGCO2 || res.EmbodiedGCO2 != batch.EmbodiedGCO2 {
		t.Errorf("stepper result carbon %g/%g != batch %g/%g",
			res.OperationalGCO2, res.EmbodiedGCO2, batch.OperationalGCO2, batch.EmbodiedGCO2)
	}
}
