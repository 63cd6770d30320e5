package dist

import (
	"bytes"
	"context"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/sweep"
	"repro/internal/trace"
)

// blobGrid builds a grid whose traces (one csv:, one cluster:) AND
// fleet are file-backed — the inputs the blob endpoint exists to ship
// — and returns it with a func that deletes all three files, leaving
// the worker's machine no copy of any input.
func blobGrid(t *testing.T) (sweep.Grid, func()) {
	t.Helper()
	dir := t.TempDir()

	cfg := trace.DefaultConfig(1)
	cfg.VMs = 24
	cfg.Days = 2
	tr, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	csvPath := filepath.Join(dir, "week.csv")
	clusterPath := filepath.Join(dir, "vmtable.csv")
	for path, write := range map[string]func(io.Writer) error{csvPath: tr.WriteCSV, clusterPath: tr.WriteClusterCSV} {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := write(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}

	fleetPath := filepath.Join(dir, "fleet.json")
	fleetBody := `{
		"name": "pair",
		"dcs": [
			{"name": "a", "share": 0.5, "pue": 1.1},
			{"name": "b", "share": 0.5, "pue": 1.3, "server": "conventional"}
		]
	}`
	if err := os.WriteFile(fleetPath, []byte(fleetBody), 0o644); err != nil {
		t.Fatal(err)
	}

	g := testGrid()
	g.Traces = []string{"csv:" + csvPath, "cluster:" + clusterPath}
	g.Topologies = []string{"follow-the-load@" + fleetPath}
	return g, func() {
		for _, path := range []string{csvPath, clusterPath, fleetPath} {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestWorkerWithoutFilesystemCompletesViaBlobShipping is the
// no-shared-filesystem acceptance check: the coordinator snapshots the
// file-backed inputs at construction, the files disappear, and a
// worker that cannot read a single byte from disk still completes the
// grid byte-identically by fetching verified blobs — in-process and
// over real HTTP.
func TestWorkerWithoutFilesystemCompletesViaBlobShipping(t *testing.T) {
	run := func(t *testing.T, overHTTP bool) {
		g, removeInputs := blobGrid(t)
		want, err := sweep.Run(g, sweep.Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := want.Failed(); err != nil {
			t.Fatal(err)
		}

		ctx := context.Background()
		c, err := NewCoordinator(g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// The worker's machine has no copy of the inputs at all.
		removeInputs()

		var b Backend = c
		if overHTTP {
			srv := httptest.NewServer(NewHandler(c))
			defer srv.Close()
			b = NewClient(srv.URL)
		}
		if _, err := Work(ctx, b, WorkerOptions{Name: "diskless", Poll: time.Millisecond}); err != nil {
			t.Fatal(err)
		}

		res, err := c.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Failed(); err != nil {
			t.Fatalf("blob-shipped run has failed rows: %v", err)
		}
		if res.CSV() != want.CSV() {
			t.Errorf("blob-shipped CSV differs from engine:\n%s\nvs\n%s", res.CSV(), want.CSV())
		}
		gj, err := res.JSON()
		if err != nil {
			t.Fatal(err)
		}
		wj, err := want.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gj, wj) {
			t.Error("blob-shipped JSON differs from engine")
		}
		// One fetch per trace plus one fleet fetch: resolution is
		// memoized per worker, so each blob ships once however many
		// scenarios share it.
		if got := c.Stats().Blobs; got != 3 {
			t.Errorf("stats.Blobs = %d, want 3 (two traces, one fleet)", got)
		}
	}
	t.Run("inproc", func(t *testing.T) { run(t, false) })
	t.Run("http", func(t *testing.T) { run(t, true) })
}

// corruptBackend flips a byte in every blob it relays: the
// wire-corruption stand-in.
type corruptBackend struct{ Backend }

func (cb corruptBackend) Blob(ctx context.Context, kind, spec string) (BlobReply, error) {
	rep, err := cb.Backend.Blob(ctx, kind, spec)
	if err == nil && len(rep.Data) > 0 {
		rep.Data = append([]byte(nil), rep.Data...)
		rep.Data[len(rep.Data)/2] ^= 0x40
	}
	return rep, err
}

// TestCorruptBlobIsRejectedLoudly: fetched bytes are re-hashed against
// the coordinator's advertised fingerprint before use. Tampered bytes
// produce a loud "corrupt" row on the worker, and the coordinator
// refuses that row — a corrupt blob can never reach the results or
// poison the shared cache.
func TestCorruptBlobIsRejectedLoudly(t *testing.T) {
	g, removeInputs := blobGrid(t)
	ctx := context.Background()
	c, err := NewCoordinator(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	removeInputs()

	rn, err := sweep.NewRunner(g)
	if err != nil {
		t.Fatal(err)
	}
	rn.SetBlobSource(backendBlobs{ctx: ctx, b: corruptBackend{c}, poll: time.Millisecond})

	reply, err := c.Lease(ctx, "tainted", 1)
	if err != nil {
		t.Fatal(err)
	}
	u := reply.Units[0]
	row := rn.Exec(u.Scenario)
	if !strings.Contains(row.Err, "corrupt") {
		t.Fatalf("row.Err = %q, want a loud corruption rejection", row.Err)
	}
	key, ok := rn.CacheKey(u.Scenario)
	if ok {
		t.Fatalf("worker fingerprinted corrupt inputs as %q", key)
	}
	err = c.Complete(ctx, "tainted", []UnitResult{{Seq: u.Seq, Lease: u.Lease, Row: row}}, sweep.LoadStats{})
	if err == nil || !strings.Contains(err.Error(), "failed to ingest") {
		t.Fatalf("corrupt-blob row accepted by the coordinator: %v", err)
	}
}

// TestBlobsDisabledFallBackToLocal: with DisableBlobs the coordinator
// serves nothing, a diskless worker's local failure is rejected (the
// coordinator could read the inputs), and no blob ever ships.
func TestBlobsDisabledFallBackToLocal(t *testing.T) {
	g, removeInputs := blobGrid(t)
	c, err := NewCoordinator(g, Options{DisableBlobs: true})
	if err != nil {
		t.Fatal(err)
	}
	removeInputs()

	_, err = Work(context.Background(), c, WorkerOptions{Name: "diskless", Poll: time.Millisecond})
	if err == nil || !strings.Contains(err.Error(), "failed to ingest") {
		t.Fatalf("diskless worker on a blobless coordinator = %v, want a loud ingest rejection", err)
	}
	if got := c.Stats().Blobs; got != 0 {
		t.Errorf("stats.Blobs = %d, want 0 with shipping disabled", got)
	}
}

// TestBlobUnknownSpecIsPermanent: specs without a snapshot (not
// file-backed, or the coordinator could not read them) are permanent
// errors on both transports, so workers fall back immediately instead
// of burning retries.
func TestBlobUnknownSpecIsPermanent(t *testing.T) {
	c, err := NewCoordinator(testGrid(), Options{}) // synthetic grid: no file-backed inputs
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	if _, err := c.Blob(ctx, sweep.BlobTrace, "csv:/nope.csv"); !isPermanent(err) {
		t.Errorf("in-process unknown-spec error = %v, want permanent", err)
	}
	if _, err := c.Blob(ctx, "bogus-kind", "x"); !isPermanent(err) {
		t.Errorf("in-process unknown-kind error = %v, want permanent", err)
	}

	srv := httptest.NewServer(NewHandler(c))
	defer srv.Close()
	cl := NewClient(srv.URL)
	if _, err := cl.Blob(ctx, sweep.BlobTrace, "csv:/nope.csv"); !isPermanent(err) {
		t.Errorf("HTTP unknown-spec error = %v, want permanent (404)", err)
	}
}
