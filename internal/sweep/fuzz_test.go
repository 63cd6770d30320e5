package sweep

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// maxFuzzScenarios bounds the grids FuzzParseGridJSON expands: a
// valid grid's axis product can be astronomically large.
const maxFuzzScenarios = 4096

// FuzzParseGridJSON feeds arbitrary bytes to the grid-file parser. It
// must never panic, and every error carries the package prefix. A grid
// that validates (after defaults) with at most maxFuzzScenarios points
// must expand without error to exactly its axis product.
func FuzzParseGridJSON(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"policies": ["EPACT", "COAT-OPT"], "vms": [40], "predictors": ["oracle"]}`,
		`{"transitions": ["default", {"name": "none"}]}`,
		`{"history_days": -1}`,
		`[1, 2]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ParseGridJSON(data)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "sweep: ") {
				t.Fatalf("ParseGridJSON error %q lacks the package prefix", err)
			}
			return
		}
		d := g.WithDefaults()
		if d.Validate() != nil {
			return
		}
		want := 1
		for _, n := range []int{len(d.Traces), len(d.Topologies), len(d.Rebalances), len(d.Seeds),
			len(d.VMs), len(d.MaxServers), len(d.StaticPowerW), len(d.Predictors),
			len(d.Transitions), len(d.ChurnFractions), len(d.PowerModels), len(d.Policies)} {
			if want *= n; want > maxFuzzScenarios {
				return
			}
		}
		scens, err := Expand(g)
		if err != nil {
			t.Fatalf("Expand rejected a grid that validates: %v", err)
		}
		if len(scens) != want {
			t.Fatalf("Expand returned %d scenarios, want the axis product %d", len(scens), want)
		}
	})
}

// fuzzRowGrid is the one-scenario grid FuzzDecodeCachedRow decodes
// rows against.
func fuzzRowGrid() Grid {
	return Grid{
		Policies:    []string{"FFD"},
		VMs:         []int{30},
		MaxServers:  []int{30},
		HistoryDays: 1,
		EvalDays:    1,
		Seeds:       []int64{2018},
		Predictors:  []string{"oracle"},
	}
}

func fuzzRowScenario(t testing.TB) Scenario {
	t.Helper()
	scens, err := Expand(fuzzRowGrid())
	if err != nil || len(scens) != 1 {
		t.Fatalf("Expand = %d scenarios, %v; want 1", len(scens), err)
	}
	return scens[0]
}

// FuzzDecodeCachedRow feeds arbitrary bytes to the result-store row
// decoder as the row for one fixed scenario. It must never panic, and
// a row it accepts answers exactly that scenario, records no failure
// and is marked Cached. The committed corpus under
// testdata/fuzz/FuzzDecodeCachedRow holds a real row, that row with an
// unknown field and with trailing bytes, another scenario's row, a
// failed row and a real multi-DC row; only the first decodes here
// (the multi-DC row answers another scenario; see
// TestCommittedRowsRoundTrip).
func FuzzDecodeCachedRow(f *testing.F) {
	s := fuzzRowScenario(f)
	f.Fuzz(func(t *testing.T, row []byte) {
		r, ok := DecodeCachedRow(row, s)
		if ok && (r.Scenario != s || r.Err != "" || !r.Cached) {
			t.Fatalf("DecodeCachedRow accepted a row for %q (error %q, cached %v); want %q, no error, cached",
				r.Scenario.ID(), r.Err, r.Cached, s.ID())
		}
	})
}

// TestCommittedRowsRoundTrip pins the row encoding to committed bytes:
// each real-* row of the FuzzDecodeCachedRow corpus, as a result store
// wrote it, decodes through DecodeCachedRow for its own scenario and
// marshals back to exactly those bytes. real-fleet-row is a triad
// fleet row with per_dc entries. A reordered, renamed or dropped
// column fails here even where every determinism gate, which compares
// the current code with itself, still passes.
func TestCommittedRowsRoundTrip(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzDecodeCachedRow", "real-*"))
	if err != nil || len(files) < 2 {
		t.Fatalf("committed real rows = %v (%v), want real-row and real-fleet-row", files, err)
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		// A corpus file is the header line, then []byte("<quoted row>").
		_, lit, _ := strings.Cut(strings.TrimSpace(string(data)), "\n")
		lit, ok := strings.CutPrefix(lit, "[]byte(")
		if lit, ok = strings.CutSuffix(lit, ")"); !ok {
			t.Fatalf("%s: not a one-value []byte corpus entry", file)
		}
		quoted, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		row := []byte(quoted)
		var head struct {
			Scenario Scenario `json:"scenario"`
		}
		if err := json.Unmarshal(row, &head); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		r, ok := DecodeCachedRow(row, head.Scenario)
		if !ok {
			t.Fatalf("%s: DecodeCachedRow rejected the row", file)
		}
		got, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, row) {
			t.Errorf("%s: row re-marshals to\n%s\nwant the committed\n%s", file, got, row)
		}
	}
}
