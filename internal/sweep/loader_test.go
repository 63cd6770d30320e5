package sweep

import "testing"

// fakeBlobs serves every spec the same bytes and advertised
// fingerprint.
type fakeBlobs struct {
	data []byte
	fp   string
}

func (b fakeBlobs) Blob(kind, spec string) ([]byte, string, error) { return b.data, b.fp, nil }

// TestRowErrorText pins the exact error text of rows whose inputs fail
// to resolve. The text is part of the CSV and JSON bytes, so a change
// in how the loader wraps an error is an output change.
func TestRowErrorText(t *testing.T) {
	g := fuzzRowGrid()
	base := fuzzRowScenario(t)
	cases := []struct {
		name  string
		blobs BlobSource
		edit  func(*Scenario)
		want  string
	}{
		{"unknown backend", nil, func(s *Scenario) { s.TraceSpec = "bogus:x" },
			`sweep: trace: unknown trace backend "bogus" (known: synthetic, csv, cluster)`},
		{"missing trace file", nil, func(s *Scenario) { s.TraceSpec = "csv:testdata/no-such-trace.csv" },
			`sweep: loading trace csv:testdata/no-such-trace.csv: trace: csv backend: open testdata/no-such-trace.csv: no such file or directory`},
		{"missing fleet file", nil, func(s *Scenario) { s.Topology = "testdata/no-such-fleet.json" },
			`sweep: loading topology testdata/no-such-fleet.json: topology: reading fleet file: open testdata/no-such-fleet.json: no such file or directory`},
		{"corrupt shipped trace", fakeBlobs{data: []byte("vm_id,class,sample,cpu_pct,mem_pct\n"), fp: "csv:testdata/no-such-trace.csv:0"},
			func(s *Scenario) { s.TraceSpec = "csv:testdata/no-such-trace.csv" },
			`sweep: shipped trace csv:testdata/no-such-trace.csv is corrupt: content hashes to "csv:testdata/no-such-trace.csv:204c5016f4dae91e837c751a3228c2b5", server advertised "csv:testdata/no-such-trace.csv:0"`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r, err := NewRunner(g)
			if err != nil {
				t.Fatal(err)
			}
			if c.blobs != nil {
				r.SetBlobSource(c.blobs)
			}
			s := base
			c.edit(&s)
			if got := r.Exec(s).Err; got != c.want {
				t.Errorf("row error = %q, want %q", got, c.want)
			}
		})
	}
}
