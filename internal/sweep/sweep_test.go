package sweep

import (
	"encoding/csv"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/dcsim"
)

func TestExpandDefaultsToPaperSetup(t *testing.T) {
	scens, err := Expand(Grid{})
	if err != nil {
		t.Fatal(err)
	}
	if len(scens) != 3 {
		t.Fatalf("default grid expands to %d scenarios, want 3 (EPACT, COAT, COAT-OPT)", len(scens))
	}
	for i, want := range []string{"EPACT", "COAT", "COAT-OPT"} {
		s := scens[i]
		if s.Policy != want {
			t.Errorf("scenario %d policy = %s, want %s", i, s.Policy, want)
		}
		if s.VMs != 600 || s.MaxServers != 600 || s.HistoryDays != 7 || s.EvalDays != 7 ||
			s.Seed != 2018 || s.Predictor != "arima" {
			t.Errorf("scenario %d = %+v, want the paper defaults", i, s)
		}
	}
}

func TestExpandOrderAndUniqueIDs(t *testing.T) {
	g := Grid{
		Policies:       []string{"EPACT", "COAT"},
		VMs:            []int{40},
		MaxServers:     []int{40, 20},
		EvalDays:       1,
		Seeds:          []int64{1, 2},
		StaticPowerW:   []float64{0, 25},
		Predictors:     []string{"oracle", "last-value"},
		Transitions:    []TransitionSpec{{Name: "none"}, {Name: "default"}},
		ChurnFractions: []float64{0, 0.5},
	}
	scens, err := Expand(g)
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * 1 * 2 * 2 * 2 * 2 * 2 * 2
	if len(scens) != want {
		t.Fatalf("expanded %d scenarios, want %d", len(scens), want)
	}
	ids := map[string]bool{}
	for _, s := range scens {
		if ids[s.ID()] {
			t.Fatalf("duplicate scenario id %q", s.ID())
		}
		ids[s.ID()] = true
	}
	// Policies are the innermost axis: adjacent scenarios differ only
	// in policy — the property the figure adapters group rows by.
	for i := 0; i+1 < len(scens); i += 2 {
		a, b := scens[i], scens[i+1]
		if a.Policy != "EPACT" || b.Policy != "COAT" {
			t.Fatalf("pair %d = (%s, %s), want (EPACT, COAT)", i/2, a.Policy, b.Policy)
		}
		a.Policy = b.Policy
		if a != b {
			t.Fatalf("pair %d differs beyond policy: %+v vs %+v", i/2, a, b)
		}
	}
}

func TestValidateRejectsUnknownAxisValues(t *testing.T) {
	// Every registered name is accepted: six policies, four predictors.
	if len(PolicyNames()) != 6 || len(PredictorNames()) != 4 {
		t.Errorf("registries = %v / %v", PolicyNames(), PredictorNames())
	}
	if _, err := Expand(Grid{Policies: PolicyNames(), Predictors: PredictorNames()}); err != nil {
		t.Errorf("registered names rejected: %v", err)
	}
	cases := []struct {
		name string
		grid Grid
		want string
	}{
		{"policy", Grid{Policies: []string{"EPACT", "nope"}}, "unknown policy"},
		{"predictor", Grid{Predictors: []string{"prophet"}}, "unknown predictor"},
		{"transitions", Grid{Transitions: []TransitionSpec{{Name: "expensive"}}}, "unknown transition"},
		{"churn", Grid{ChurnFractions: []float64{1.5}}, "churn fraction"},
		// NaN fails every comparison, so it must be rejected by a
		// negated range test, not waved through as zero churn.
		{"churn-nan", Grid{ChurnFractions: []float64{math.NaN()}}, "churn fraction"},
		// A negative static power used to be priced at the model
		// default, NaN to fail only at JSON encoding and +Inf deep
		// inside EPACT's case-1 search.
		{"static-negative", Grid{StaticPowerW: []float64{-5}}, "static power"},
		{"static-nan", Grid{StaticPowerW: []float64{math.NaN()}}, "static power"},
		{"static-inf", Grid{StaticPowerW: []float64{math.Inf(1)}}, "static power"},
		{"vms", Grid{VMs: []int{-1}}, "VMs must be positive"},
		{"max-servers", Grid{MaxServers: []int{-600}}, "MaxServers must be >= 0"},
		// Duplicate names would let transitionFor silently alias two
		// models and break scenario-ID uniqueness.
		{"dup-transitions", Grid{Transitions: []TransitionSpec{
			{Name: "custom", Model: &dcsim.TransitionModel{ServerOnEnergy: 1}},
			{Name: "custom", Model: &dcsim.TransitionModel{ServerOnEnergy: 2}},
		}}, "duplicate transition model name"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Expand(c.grid)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Expand error = %v, want mention of %q", err, c.want)
			}
		})
	}
}

func TestCSVQuotesFreeTextFields(t *testing.T) {
	r := &Results{Runs: []RunResult{{
		Scenario: Scenario{Policy: "EPACT", Predictor: "oracle", Transitions: "none"},
		Err:      "dcsim: predictions cover 40 VMs, trace has 80",
	}}}
	records, err := csv.NewReader(strings.NewReader(r.CSV())).ReadAll()
	if err != nil {
		t.Fatalf("emitted CSV does not parse: %v", err)
	}
	if len(records) != 2 {
		t.Fatalf("CSV has %d records, want 2", len(records))
	}
	header, row := records[0], records[1]
	if len(row) != len(header) {
		t.Errorf("row has %d fields, header has %d — error field not quoted", len(row), len(header))
	}
	if got := row[len(row)-1]; got != "dcsim: predictions cover 40 VMs, trace has 80" {
		t.Errorf("error field round-tripped as %q", got)
	}
}

func TestTransitionSpecJSONRoundTrip(t *testing.T) {
	// Bare-string shorthand.
	var s TransitionSpec
	if err := json.Unmarshal([]byte(`"default"`), &s); err != nil {
		t.Fatal(err)
	}
	m, err := s.resolve()
	if err != nil {
		t.Fatal(err)
	}
	if m != dcsim.DefaultTransitions() {
		t.Errorf("bare-string spec resolved to %+v, want DefaultTransitions", m)
	}

	// Custom embedded model survives a round trip.
	custom := dcsim.TransitionModel{ServerOnEnergy: 123}
	out, err := json.Marshal(TransitionSpec{Name: "custom", Model: &custom})
	if err != nil {
		t.Fatal(err)
	}
	var back TransitionSpec
	if err := json.Unmarshal(out, &back); err != nil {
		t.Fatal(err)
	}
	got, err := back.resolve()
	if err != nil {
		t.Fatal(err)
	}
	if got != custom {
		t.Errorf("round-tripped custom model = %+v, want %+v", got, custom)
	}
}

func TestParseGridJSON(t *testing.T) {
	g, err := ParseGridJSON([]byte(`{
		"policies": ["EPACT", "COAT"],
		"vms": [40],
		"eval_days": 1,
		"seeds": [7],
		"predictors": ["oracle"],
		"transitions": ["default"]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	scens, err := Expand(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(scens) != 2 {
		t.Fatalf("expanded %d scenarios, want 2", len(scens))
	}
	if scens[0].Transitions != "default" || scens[0].Seed != 7 {
		t.Errorf("scenario = %+v, want transitions=default seed=7", scens[0])
	}

	if _, err := ParseGridJSON([]byte(`{"polices": ["EPACT"]}`)); err == nil {
		t.Error("misspelled grid field was not rejected")
	}
	for _, in := range []string{
		`{"policies":["EPACT"]} {"policies":["COAT"]}`,
		`{"policies":["EPACT"]} garbage`,
		`{"policies":["EPACT"]}]`,
	} {
		_, err := ParseGridJSON([]byte(in))
		if err == nil || !strings.HasPrefix(err.Error(), "sweep: ") {
			t.Errorf("ParseGridJSON(%s) = %v, want a sweep: trailing-data error", in, err)
		}
	}
	if _, err := ParseGridJSON([]byte("{\"policies\":[\"EPACT\"]}\n\t ")); err != nil {
		t.Errorf("trailing whitespace rejected: %v", err)
	}
}
