package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/sweep"
	"repro/internal/sweep/cache"
	"repro/internal/trace"
)

// execAll runs every unit of a lease reply through a fresh runner —
// the test stand-in for a worker's batch loop when a test needs to
// hold the Complete call itself.
func execAll(t *testing.T, g sweep.Grid, units []Unit) []UnitResult {
	t.Helper()
	rn, err := sweep.NewRunner(g)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]UnitResult, 0, len(units))
	for _, u := range units {
		key, _ := rn.CacheKey(u.Scenario)
		out = append(out, UnitResult{Seq: u.Seq, Lease: u.Lease, Row: rn.Exec(u.Scenario), Key: key})
	}
	return out
}

// TestCheckpointJournalResumesMidGrid drives the journal through the
// exact crash window: completed rows and still-live leases at the
// moment of death. The resumed coordinator restores both — the
// in-flight worker lands its batch under its original leases, the
// rest lease out fresh, and the output is byte-identical.
func TestCheckpointJournalResumesMidGrid(t *testing.T) {
	want, err := sweep.Run(testGrid(), sweep.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	dir := t.TempDir()

	a, err := NewCoordinator(testGrid(), Options{CheckpointDir: dir, LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	batch1, err := a.Lease(ctx, "doomed", 3)
	if err != nil {
		t.Fatal(err)
	}
	batch2, err := a.Lease(ctx, "survivor", 2)
	if err != nil {
		t.Fatal(err)
	}
	// The first batch lands and journals; the second is still in
	// flight when the coordinator "dies" (goes out of scope).
	if err := a.Complete(ctx, "doomed", execAll(t, testGrid(), batch1.Units), sweep.LoadStats{}); err != nil {
		t.Fatal(err)
	}

	ck, err := LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Completed != 3 {
		t.Fatalf("ck.Completed = %d, want 3", ck.Completed)
	}
	b, err := Resume(ck, Options{LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Stats().Resumed; got != 3 {
		t.Fatalf("Stats.Resumed = %d, want 3", got)
	}

	// The surviving worker outlived the coordinator: its original
	// leases were journaled, so its Complete lands as current — not
	// stale, not expired.
	if err := b.Complete(ctx, "survivor", execAll(t, testGrid(), batch2.Units), sweep.LoadStats{}); err != nil {
		t.Fatalf("in-flight batch rejected after resume: %v", err)
	}
	if s := b.Stats(); s.Stale != 0 {
		t.Errorf("stats.Stale = %d, want 0 — journaled leases must stay valid across the restart", s.Stale)
	}

	if _, err := Work(ctx, b, WorkerOptions{Name: "replacement", Poll: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	res, err := b.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.CSV() != want.CSV() {
		t.Errorf("resumed CSV differs from engine:\n%s\nvs\n%s", res.CSV(), want.CSV())
	}
	if s := b.Stats(); s.Leases != 3 || s.Expired != 0 {
		t.Errorf("resume stats = %+v, want 3 fresh leases (the non-journaled units) and no expiries", s)
	}
}

// TestResumeOfCompleteJournalIsInstantlyDone: a journal covering the
// whole grid resumes into a coordinator that needs no workers at all
// and emits byte-identical output — zero re-executed warm units.
func TestResumeOfCompleteJournalIsInstantlyDone(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	cold, _, err := runLocal(ctx, testGrid(), 2, Options{CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}

	ck, err := LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Completed != 8 {
		t.Fatalf("ck.Completed = %d, want 8", ck.Completed)
	}
	c, err := Resume(ck, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sweepDone(c) {
		t.Fatal("complete journal resumed into a coordinator that still wants workers")
	}
	res, err := c.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.CSV() != cold.CSV() {
		t.Error("resumed CSV differs from the original run")
	}
	if s := c.Stats(); s.Resumed != 8 || s.Leases != 0 || s.Workers != 0 {
		t.Errorf("stats = %+v, want 8 resumed, nothing leased, no workers", s)
	}
}

// TestCheckpointRejectsCorruption: every way a journal can lie —
// truncation, version skew, out-of-range or duplicate units, rows for
// the wrong scenario, impossible leases — is a loud LoadCheckpoint
// error. A journal that cannot be trusted entirely is never resumed
// partially.
func TestCheckpointRejectsCorruption(t *testing.T) {
	// One real journal (a completed run) as the mutation base.
	base := t.TempDir()
	if _, _, err := runLocal(context.Background(), testGrid(), 2, Options{CheckpointDir: base}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(base, checkpointFileName))
	if err != nil {
		t.Fatal(err)
	}
	decode := func(t *testing.T) journalImage { return decodeJournal(t, raw) }
	header := bytes.IndexByte(raw, '\n')

	cases := []struct {
		name    string
		mutate  func(t *testing.T) []byte
		wantErr string
	}{
		// A torn final record is what a crash mid-append leaves, and
		// loads; a torn header or a torn record with records after it
		// is corruption.
		{"truncated", func(t *testing.T) []byte { return raw[:header/2] }, "decoding checkpoint"},
		{"torn record mid-journal", func(t *testing.T) []byte {
			lines := bytes.SplitAfter(raw, []byte("\n"))
			torn := lines[2][:len(lines[2])/2]
			out := slices.Concat(lines[0], lines[1], torn, []byte("\n"))
			return append(out, bytes.Join(lines[3:], nil)...)
		}, "decoding checkpoint"},
		{"wrong version", func(t *testing.T) []byte {
			cf := decode(t)
			cf.Version = "dist-checkpoint-v0"
			return cf.encode(t)
		}, "version"},
		{"unknown field", func(t *testing.T) []byte {
			return append([]byte(`{"bogus":1,`), raw[1:]...)
		}, "unknown field"},
		{"row seq out of range", func(t *testing.T) []byte {
			cf := decode(t)
			cf.Rows[0].Seq = 99
			return cf.encode(t)
		}, "grid has"},
		{"duplicate row", func(t *testing.T) []byte {
			cf := decode(t)
			cf.Rows = append(cf.Rows, cf.Rows[0])
			return cf.encode(t)
		}, "duplicate row"},
		{"row does not decode", func(t *testing.T) []byte {
			cf := decode(t)
			cf.Rows[0].Row = json.RawMessage(`{"scenario":42}`)
			return cf.encode(t)
		}, "does not decode"},
		{"row with unknown field", func(t *testing.T) []byte {
			cf := decode(t)
			cf.Rows[0].Row = append(json.RawMessage(`{"bogus":1,`), cf.Rows[0].Row[1:]...)
			return cf.encode(t)
		}, "does not decode"},
		{"row for wrong scenario", func(t *testing.T) []byte {
			cf := decode(t)
			cf.Rows[0].Row, cf.Rows[1].Row = cf.Rows[1].Row, cf.Rows[0].Row
			cf.Rows[0].Key, cf.Rows[1].Key = cf.Rows[1].Key, cf.Rows[0].Key
			return cf.encode(t)
		}, "grid expands to"},
		{"negative lease id", func(t *testing.T) []byte {
			cf := decode(t)
			cf.LeaseID = -1
			return cf.encode(t)
		}, "negative lease id"},
		{"unit both done and leased", func(t *testing.T) []byte {
			cf := decode(t)
			cf.Leases = append(cf.Leases, checkpointLease{Seq: cf.Rows[0].Seq, Lease: 1})
			return cf.encode(t)
		}, "both completed and leased"},
		{"lease outside issued range", func(t *testing.T) []byte {
			cf := decode(t)
			freed := cf.Rows[len(cf.Rows)-1].Seq
			cf.Rows = cf.Rows[:len(cf.Rows)-1]
			cf.Leases = append(cf.Leases, checkpointLease{Seq: freed, Lease: cf.LeaseID + 50})
			return cf.encode(t)
		}, "outside the issued range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, checkpointFileName), tc.mutate(t), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := LoadCheckpoint(dir)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("LoadCheckpoint error = %v, want one containing %q", err, tc.wantErr)
			}
		})
	}

	t.Run("missing journal", func(t *testing.T) {
		if _, err := LoadCheckpoint(t.TempDir()); err == nil || !strings.Contains(err.Error(), "reading checkpoint") {
			t.Fatalf("LoadCheckpoint on an empty dir = %v, want a loud read error", err)
		}
	})
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// journalImage is a journal flattened for mutation: the header's
// fields, every record's rows, and the last record's lease state.
type journalImage struct {
	Version string
	Grid    sweep.Grid
	LeaseID int64
	Leases  []checkpointLease
	Rows    []checkpointRow
}

func decodeJournal(t *testing.T, raw []byte) journalImage {
	t.Helper()
	lines := bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n"))
	var hdr checkpointHeader
	if err := json.Unmarshal(lines[0], &hdr); err != nil {
		t.Fatal(err)
	}
	img := journalImage{Version: hdr.Version, Grid: hdr.Grid}
	for _, line := range lines[1:] {
		var rec checkpointRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		img.Rows = append(img.Rows, rec.Rows...)
		img.LeaseID, img.Leases = rec.LeaseID, rec.Leases
	}
	return img
}

// encode writes the image back as a journal: the header and one
// record holding every row.
func (img journalImage) encode(t *testing.T) []byte {
	t.Helper()
	out := mustMarshal(t, checkpointHeader{Version: img.Version, Grid: img.Grid})
	out = append(out, '\n')
	out = append(out, mustMarshal(t, checkpointRecord{LeaseID: img.LeaseID, Leases: img.Leases, Rows: img.Rows})...)
	return append(out, '\n')
}

// TestResumeRefusesChangedInputs pins the key guard: a journal written
// against one version of a trace file cannot resume after the file
// changed — the run would silently mix rows from two input versions.
func TestResumeRefusesChangedInputs(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "week.csv")
	writeTrace := func(seed int64) {
		t.Helper()
		cfg := trace.DefaultConfig(seed)
		cfg.VMs = 24
		cfg.Days = 2
		tr, err := trace.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.Create(tracePath)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.WriteCSV(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	writeTrace(1)

	g := testGrid()
	g.Traces = []string{"csv:" + tracePath}
	ckdir := filepath.Join(dir, "ck")
	if _, _, err := runLocal(context.Background(), g, 2, Options{CheckpointDir: ckdir}); err != nil {
		t.Fatal(err)
	}

	// Same path, different bytes: the journal itself is internally
	// consistent (LoadCheckpoint passes), but resuming against the new
	// content is refused.
	writeTrace(2)
	ck, err := LoadCheckpoint(ckdir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(ck, Options{}); err == nil || !strings.Contains(err.Error(), "inputs changed") {
		t.Fatalf("Resume against edited inputs = %v, want a loud refusal", err)
	}

	// Restoring the original bytes makes the same journal resumable.
	writeTrace(1)
	c, err := Resume(ck, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sweepDone(c) {
		t.Error("restored-input resume of a complete journal is not done")
	}
}

// TestCheckpointDirFailureIsLoud: a checkpoint directory that cannot
// be created (here: the path is a file) fails at construction, not as
// a mid-sweep surprise.
func TestCheckpointDirFailureIsLoud(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewCoordinator(testGrid(), Options{CheckpointDir: path}); err == nil {
		t.Fatal("coordinator accepted an unusable checkpoint dir")
	}
}

// journalWatch is an in-process backend — it embeds the coordinator,
// so its workers share the coordinator's Runner as runLocal's do —
// that checks the journal after every Complete: the call may only
// append, and only about its own rows' bytes.
type journalWatch struct {
	*Coordinator
	t       *testing.T
	path    string
	maxLive int // the most leases the workers can hold at once

	mu        sync.Mutex
	prev      []byte
	completes int
}

func (j *journalWatch) Complete(ctx context.Context, worker string, results []UnitResult, load sweep.LoadStats) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	err := j.Coordinator.Complete(ctx, worker, results, load)
	data, rerr := os.ReadFile(j.path)
	if rerr != nil {
		j.t.Error(rerr)
		return err
	}
	if !bytes.HasPrefix(data, j.prev) {
		j.t.Errorf("Complete %d rewrote journal bytes it had already written", j.completes)
	}
	// Its own rows (seq, key, row bytes), the live-lease table and the
	// record's frame; nothing that grows with the journal.
	bound := 64 + j.maxLive*96
	for _, r := range results {
		bound += len(mustMarshal(j.t, r.Row)) + len(r.Key) + 32
	}
	if grown := len(data) - len(j.prev); grown > bound {
		j.t.Errorf("Complete %d of %d row(s) grew the journal by %d bytes, bound %d", j.completes, len(results), grown, bound)
	}
	j.prev = data
	j.completes++
	return err
}

// TestJournalAppendsPerComplete pins the append-only journal: on a
// checkpointed in-process run, each Complete grows journal.json by at
// most its own rows plus the live-lease table plus a constant, never
// rewrites what is already there, and the final journal resumes into
// the whole grid.
func TestJournalAppendsPerComplete(t *testing.T) {
	want, err := sweep.Run(testGrid(), sweep.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	c, err := NewCoordinator(testGrid(), Options{CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, checkpointFileName)
	start, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 2
	j := &journalWatch{Coordinator: c, t: t, path: path, maxLive: workers, prev: start}
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := Work(ctx, j, WorkerOptions{Name: fmt.Sprintf("local-%d", i)}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	res, err := c.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.CSV() != want.CSV() {
		t.Error("checkpointed CSV differs from engine")
	}
	if j.completes != 8 {
		t.Errorf("%d Completes, want one per row (8)", j.completes)
	}
	ck, err := LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Completed != 8 {
		t.Errorf("final journal holds %d rows, want 8", ck.Completed)
	}
}

// TestTornJournalTailResumes: a crash that cuts an append short leaves
// a torn final record. Loading drops it, Resume cuts it off before
// appending, and the resumed journal reloads cleanly with every row.
func TestTornJournalTailResumes(t *testing.T) {
	want, err := sweep.Run(testGrid(), sweep.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	dir := t.TempDir()
	a, err := NewCoordinator(testGrid(), Options{CheckpointDir: dir, LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	reply, err := a.Lease(ctx, "doomed", 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range execAll(t, testGrid(), reply.Units) {
		if err := a.Complete(ctx, "doomed", []UnitResult{r}, sweep.LoadStats{}); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, checkpointFileName)
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A crash cut the next append short: half a record follows the
	// last whole one.
	last := bytes.LastIndexByte(whole[:len(whole)-1], '\n') + 1
	torn := whole[last : last+(len(whole)-last)/2]
	if err := os.WriteFile(path, append(slices.Clone(whole), torn...), 0o644); err != nil {
		t.Fatal(err)
	}

	ck, err := LoadCheckpoint(dir)
	if err != nil {
		t.Fatalf("torn tail refused: %v", err)
	}
	if ck.Completed != 3 {
		t.Fatalf("ck.Completed = %d, want the 3 whole records' rows", ck.Completed)
	}
	b, err := Resume(ck, Options{LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Work(ctx, b, WorkerOptions{Name: "replacement", Poll: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	res, err := b.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.CSV() != want.CSV() {
		t.Error("resumed CSV differs from engine")
	}

	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(after, whole) || bytes.Contains(after[len(whole):], torn) {
		t.Error("Resume did not cut off the torn tail before appending")
	}
	ck2, err := LoadCheckpoint(dir)
	if err != nil {
		t.Fatalf("resumed journal does not reload: %v", err)
	}
	if ck2.Completed != 8 {
		t.Errorf("resumed journal holds %d rows, want 8", ck2.Completed)
	}
}

// TestCheckpointRefusesV1Journal: a journal of the previous format
// (one JSON object, rewritten whole) is refused by an error naming
// both versions, never read as a v2 header.
func TestCheckpointRefusesV1Journal(t *testing.T) {
	dir := t.TempDir()
	g, err := json.Marshal(testGrid().WithDefaults())
	if err != nil {
		t.Fatal(err)
	}
	v1 := `{"version":"dist-checkpoint-v1","grid":` + string(g) + `,"lease_id":0,"rows":[]}`
	if err := os.WriteFile(filepath.Join(dir, checkpointFileName), []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = LoadCheckpoint(dir)
	if err == nil || !strings.Contains(err.Error(), `"dist-checkpoint-v1"`) || !strings.Contains(err.Error(), `"dist-checkpoint-v2"`) {
		t.Fatalf("LoadCheckpoint on a v1 journal = %v, want an error naming both versions", err)
	}
}

// TestResumeIntoAnotherDirWritesAWholeJournal: resuming with
// Options.CheckpointDir set elsewhere leaves the old journal alone and
// starts a whole one there, header and resumed rows included, which
// reloads by itself.
func TestResumeIntoAnotherDirWritesAWholeJournal(t *testing.T) {
	ctx := context.Background()
	dir, moved := t.TempDir(), t.TempDir()
	a, err := NewCoordinator(testGrid(), Options{CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	reply, err := a.Lease(ctx, "doomed", 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Complete(ctx, "doomed", execAll(t, testGrid(), reply.Units), sweep.LoadStats{}); err != nil {
		t.Fatal(err)
	}
	old, err := os.ReadFile(filepath.Join(dir, checkpointFileName))
	if err != nil {
		t.Fatal(err)
	}
	ck, err := LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Resume(ck, Options{CheckpointDir: moved})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Work(ctx, b, WorkerOptions{Name: "replacement", Poll: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if now, err := os.ReadFile(filepath.Join(dir, checkpointFileName)); err != nil || !bytes.Equal(now, old) {
		t.Errorf("resuming elsewhere changed the old journal (err %v)", err)
	}
	ck2, err := LoadCheckpoint(moved)
	if err != nil {
		t.Fatal(err)
	}
	if ck2.Completed != 8 {
		t.Errorf("the new journal holds %d rows, want all 8", ck2.Completed)
	}
}

// TestResumeOfCachedLeasedUnit: a kill between Complete's cache write
// and its journal append leaves a unit cached and, in the last whole
// record, still leased. The resumed coordinator treats it as done and
// drops its lease, so the fair share counts every other unit as
// leasable, the run finishes, and its journal reloads.
func TestResumeOfCachedLeasedUnit(t *testing.T) {
	want, err := sweep.Run(testGrid(), sweep.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	dir := t.TempDir()
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	a, err := NewCoordinator(testGrid(), Options{CheckpointDir: dir, LeaseTTL: time.Minute, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	// Leases at seqs 0 and 1 go to one worker, seq 2 to another, whose
	// row lands and journals both live leases.
	held, err := a.Lease(ctx, "doomed", 2)
	if err != nil {
		t.Fatal(err)
	}
	other, err := a.Lease(ctx, "other", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Complete(ctx, "other", execAll(t, testGrid(), other.Units), sweep.LoadStats{}); err != nil {
		t.Fatal(err)
	}
	// Seq 0's row reached the cache, but the coordinator died before
	// its journal record did.
	store, err := cache.Open(filepath.Join(dir, "cache"), cache.ModeRW)
	if err != nil {
		t.Fatal(err)
	}
	rows := execAll(t, testGrid(), held.Units)
	data, err := json.Marshal(rows[0].Row)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put(rows[0].Key, data); err != nil {
		t.Fatal(err)
	}

	ck, err := LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ck.leases) != 2 {
		t.Fatalf("the journal holds %d live leases, want 2", len(ck.leases))
	}
	b, err := Resume(ck, Options{Cache: store, LeaseTTL: time.Minute, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, b)
	// Seq 1 is still leased; the five never-leased units are all
	// leasable at once, without waiting out seq 0's stale lease.
	reply, err := b.Lease(ctx, "replacement", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(reply.Units) != 5 {
		t.Fatalf("resumed coordinator granted %d units, want the 5 pending ones", len(reply.Units))
	}
	if err := b.Complete(ctx, "replacement", execAll(t, testGrid(), reply.Units), sweep.LoadStats{}); err != nil {
		t.Fatal(err)
	}
	if err := b.Complete(ctx, "doomed", rows[1:], sweep.LoadStats{}); err != nil {
		t.Fatal(err)
	}
	res, err := b.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.CSV() != want.CSV() {
		t.Error("resumed CSV differs from engine")
	}
	ck2, err := LoadCheckpoint(dir)
	if err != nil {
		t.Fatalf("resumed journal does not reload: %v", err)
	}
	if ck2.Completed != 8 {
		t.Errorf("resumed journal holds %d rows, want 8", ck2.Completed)
	}
}

// TestJournalLeasesInSeqOrder: each record lists its live leases in
// seq order, so one run writes the same journal bytes every time.
func TestJournalLeasesInSeqOrder(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	now := time.Unix(1000, 0)
	c, err := NewCoordinator(testGrid(), Options{CheckpointDir: dir, LeaseTTL: time.Minute, Clock: func() time.Time { return now }})
	if err != nil {
		t.Fatal(err)
	}
	reply, err := c.Lease(ctx, "a", 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range execAll(t, testGrid(), reply.Units[:4]) {
		if err := c.Complete(ctx, "a", []UnitResult{r}, sweep.LoadStats{}); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(filepath.Join(dir, checkpointFileName))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(raw, []byte{'\n'}), []byte{'\n'})
	for n, line := range lines[1:] {
		var rec checkpointRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		if !slices.IsSortedFunc(rec.Leases, func(a, b checkpointLease) int { return a.Seq - b.Seq }) {
			t.Errorf("record %d lists leases out of seq order: %+v", n+1, rec.Leases)
		}
	}
}

// TestResumeHandsBackLocalWorkersLeases: a `-dist local:N` coordinator
// killed while its in-process workers held leases took those workers
// with it. Resumed under RunCoordinator, their journaled leases go back
// for immediate re-lease instead of idling out the TTL, while a remote
// worker's lease, whose holder may have survived, keeps its deadline.
func TestResumeHandsBackLocalWorkersLeases(t *testing.T) {
	want, err := sweep.Run(testGrid(), sweep.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	dir := t.TempDir()
	const ttl = 3 * time.Second
	a, err := NewCoordinator(testGrid(), Options{CheckpointDir: dir, LeaseTTL: ttl})
	if err != nil {
		t.Fatal(err)
	}
	done, err := a.Lease(ctx, "local-0", 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Lease(ctx, "local-1", 2); err != nil {
		t.Fatal(err)
	}
	if err := a.Complete(ctx, "local-0", execAll(t, testGrid(), done.Units), sweep.LoadStats{}); err != nil {
		t.Fatal(err)
	}

	ck, err := LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Resume(ck, Options{LeaseTTL: ttl})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, st, err := RunCoordinator(ctx, b, 2)
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took >= time.Second || st.Expired != 0 {
		t.Errorf("resumed local run took %v with %d expired leases, want under 1s and none", took, st.Expired)
	}
	if res.CSV() != want.CSV() {
		t.Errorf("resumed CSV differs from engine:\n%s\nvs\n%s", res.CSV(), want.CSV())
	}

	// A remote worker's restored lease is not the local workers' to
	// hand back.
	c, err := NewCoordinator(testGrid(), Options{CheckpointDir: t.TempDir(), LeaseTTL: ttl})
	if err != nil {
		t.Fatal(err)
	}
	remote, err := c.Lease(ctx, "remote", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Lease(ctx, "local-0", 1); err != nil {
		t.Fatal(err)
	}
	c.releaseWorkers([]string{"local-0", "local-1"})
	if u := c.units[remote.Units[0].Seq]; u.state != unitLeased || u.lease != remote.Units[0].Lease || len(c.leased) != 1 {
		t.Errorf("remote lease after handing back local ones: state %d lease %d (%d leased), want it held", u.state, u.lease, len(c.leased))
	}
}
