package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/sweep"
	"repro/internal/topology"
	"repro/internal/trace"
)

// oneUnitGrid is the smallest real grid: one policy, one pool bound,
// one transition model — a single scenario, for harnesses that need a
// live coordinator without paying for eight executions.
func oneUnitGrid() sweep.Grid {
	g := testGrid()
	g.Policies = []string{"EPACT"}
	g.MaxServers = []int{24}
	g.Transitions = []sweep.TransitionSpec{{Name: "none"}}
	return g
}

// checkInvariants asserts what no input — however corrupt — may
// ever break: a done unit holds a row for its own scenario (the
// poison-free property), the pending counter matches the table, and
// the grant bookkeeping does too: the leased set holds exactly the
// leased units, and every pending unit the cursor has passed waits in
// the requeue, which is in seq order without duplicates.
func checkInvariants(t *testing.T, c *Coordinator) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	pending, leased := 0, 0
	for i := range c.units {
		u := &c.units[i]
		switch u.state {
		case unitDone:
			if u.row.Scenario != u.scenario {
				t.Fatalf("unit %d is done with a row for scenario %q, want %q — the table is poisoned",
					i, u.row.Scenario.ID(), u.scenario.ID())
			}
		case unitLeased:
			pending++
			leased++
			if _, ok := c.leased[i]; !ok {
				t.Fatalf("leased unit %d is missing from the leased set", i)
			}
		default:
			pending++
			if i < c.next && !u.queued {
				t.Fatalf("pending unit %d is behind the cursor (%d) and not requeued: it can never be leased", i, c.next)
			}
		}
	}
	if pending != c.pending {
		t.Fatalf("pending counter drifted: table has %d, counter says %d", pending, c.pending)
	}
	if leased != len(c.leased) {
		t.Fatalf("leased set holds %d units, table has %d leased", len(c.leased), leased)
	}
	if !slices.IsSorted(c.requeue) {
		t.Fatalf("requeue %v is out of seq order", c.requeue)
	}
	for _, i := range c.requeue {
		if !c.units[i].queued {
			t.Fatalf("requeued unit %d is not marked queued", i)
		}
	}
	queued := 0
	for i := range c.units {
		if c.units[i].queued {
			queued++
		}
	}
	if queued != len(c.requeue) {
		t.Fatalf("requeue holds %d seqs, %d units are marked queued", len(c.requeue), queued)
	}
}

// FuzzCheckpointDecode feeds arbitrary bytes to the journal loader:
// every input must either error loudly or load into a checkpoint that
// resumes without poisoning the unit table. A journal is attacker-ish
// input by construction — it survived a crash the coordinator did not.
func FuzzCheckpointDecode(f *testing.F) {
	// Seed with a real journal from a completed one-unit sweep plus
	// the interesting hand-shapes (the committed corpus under
	// testdata/fuzz adds more).
	dir := f.TempDir()
	if _, _, err := runLocal(context.Background(), oneUnitGrid(), 1, Options{CheckpointDir: dir}); err != nil {
		f.Fatal(err)
	}
	real, err := os.ReadFile(filepath.Join(dir, checkpointFileName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(real)
	f.Add([]byte(`{"version":"dist-checkpoint-v2","grid":{}}` + "\n" + `{"lease_id":0}` + "\n"))
	f.Add([]byte(`{"version":"dist-checkpoint-v2","grid":{}}` + "\n" + `{"lease_id":2,"leases":[{"seq":0,"lease":2,"deadline":"2026-01-01T00:00:00Z"}]}` + "\n"))
	f.Add([]byte(`{"version":"dist-checkpoint-v1","grid":{},"lease_id":0,"rows":[]}`))
	f.Add([]byte(`{"version":"dist-checkpoint-v0","grid":{},"lease_id":0,"rows":[]}`))
	f.Add(real[:len(real)/2])
	f.Add(real[:len(real)-3])
	f.Add(append(real, real[bytes.IndexByte(real, '\n')+1:]...))
	f.Add([]byte(`not json at all`))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Keep the harness bounded: a crafted grid whose axis product
		// explodes would OOM the fuzzer in Expand, which is a resource
		// ceiling, not a decoding bug.
		var probe struct {
			Grid sweep.Grid `json:"grid"`
		}
		head, _, _ := bytes.Cut(data, []byte{'\n'})
		if json.Unmarshal(head, &probe) == nil {
			prod := 1
			for _, n := range []int{
				len(probe.Grid.Policies), len(probe.Grid.VMs), len(probe.Grid.MaxServers),
				len(probe.Grid.Predictors), len(probe.Grid.Transitions),
				len(probe.Grid.Traces), len(probe.Grid.Topologies),
			} {
				if n > 1 {
					prod *= n
				}
				if prod > 10_000 {
					return
				}
			}
		}

		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, checkpointFileName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		ck, err := LoadCheckpoint(dir)
		if err != nil {
			return // loud rejection is the expected path
		}
		// Hermeticity: a fuzz-crafted grid may name arbitrary
		// filesystem paths; resolving those is the OS's business, not
		// this harness's. Only resume grids with no file-backed inputs.
		for _, spec := range ck.Grid.Traces {
			if src, err := trace.ParseSourceSpec(spec); err != nil || src.IsFile() {
				return
			}
		}
		for _, spec := range ck.Grid.Topologies {
			s, err := topology.ParseSpec(spec)
			if err != nil || s.IsFile {
				return
			}
		}
		c, err := Resume(ck, Options{})
		if err != nil {
			return // refusing an accepted-but-unresumable journal is loud too
		}
		checkInvariants(t, c)
		if _, err := c.Lease(context.Background(), "fuzz", 1); err != nil {
			t.Fatalf("resumed coordinator cannot lease: %v", err)
		}
	})
}

// FuzzHTTPProtocolDecode throws arbitrary bodies at every POST
// endpoint of the wire protocol: no input may panic the handler or
// corrupt the coordinator's unit table, and a body beyond
// maxRequestBody is 413. Bad requests are 4xx/5xx; a forged-but-valid
// completion is ordinary protocol traffic and must still leave the
// table consistent. The committed corpus holds the loose-decoding
// repro (an unknown field plus trailing data, once leased); the
// oversized seed is built here rather than committed.
func FuzzHTTPProtocolDecode(f *testing.F) {
	c, err := NewCoordinator(oneUnitGrid(), Options{})
	if err != nil {
		f.Fatal(err)
	}
	h := NewHandler(c)
	c.mu.Lock()
	scen := c.units[0].scenario
	c.mu.Unlock()
	// A well-formed completion for the real scenario: the hardest
	// body to survive, because it actually lands.
	valid, err := json.Marshal(completeRequest{
		Worker:  "seed",
		Results: []UnitResult{{Seq: 0, Lease: 1, Row: sweep.RunResult{Scenario: scen}}},
	})
	if err != nil {
		f.Fatal(err)
	}

	f.Add(byte(0), []byte(`{"worker":"w","max":4}`))
	f.Add(byte(1), []byte(`{"worker":"w","units":[{"seq":0,"lease":1}]}`))
	f.Add(byte(2), valid)
	f.Add(byte(2), []byte(`{"worker":"w","results":[{"seq":0,"lease":1,"row":{}}],"load":{}}`))
	f.Add(byte(2), []byte(`{"worker":"w","results":[{"seq":-4}]}`))
	f.Add(byte(3), []byte(`{"worker":"w","units":[{"seq":0,"lease":9}]}`))
	f.Add(byte(4), []byte(`{"kind":"trace","spec":"csv:/nope.csv"}`))
	f.Add(byte(2), []byte(`nonsense`))
	f.Add(byte(2), append([]byte(`{"worker":"w"}`), bytes.Repeat([]byte(" "), maxRequestBody)...))

	endpoints := []string{"/v1/lease", "/v1/renew", "/v1/complete", "/v1/release", "/v1/blob"}
	f.Fuzz(func(t *testing.T, which byte, body []byte) {
		req := httptest.NewRequest(http.MethodPost, endpoints[int(which)%len(endpoints)], bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req) // must not panic, whatever the body
		if len(body) > maxRequestBody && rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%d-byte body: status %d, want %d", len(body), rec.Code, http.StatusRequestEntityTooLarge)
		}
		checkInvariants(t, c)
	})
}
