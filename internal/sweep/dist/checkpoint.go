package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/jsonx"
	"repro/internal/sweep"
)

// Crash-resume: a coordinator given Options.CheckpointDir journals
// its completion state to <dir>/journal.json, an append-only file of
// JSON lines. The first line is a header (the version and the
// defaulted grid), written once; every Complete that lands rows then
// appends one record holding those rows, the lease counter and the
// live-lease table, so each append costs what its own rows cost, not
// what the journal already holds. A coordinator killed mid-grid
// (SIGKILL included; there is no shutdown hook to miss) is restarted
// with LoadCheckpoint + Resume: journaled rows are restored as done
// without re-execution, the last record's live leases are restored so
// in-flight workers can still land their results, and the remaining
// units lease out as usual. Because rows are a deterministic function
// of their scenario, the resumed sweep's CSV/JSON is byte-identical to
// an uninterrupted run.
//
// Lease grants are not journaled: a resumed coordinator re-leases a
// unit granted after the last record at once, instead of waiting out
// the TTL of a lease whose worker may have died with the coordinator.
// Records are not fsynced: they survive the process, and a crash that
// loses the end of the file leaves a torn final record, which loading
// drops and Resume cuts off before it appends.

const (
	checkpointVersion  = "dist-checkpoint-v2"
	checkpointFileName = "journal.json"
)

// checkpointHeader is the journal's first line.
type checkpointHeader struct {
	Version string     `json:"version"`
	Grid    sweep.Grid `json:"grid"`
}

// checkpointRecord is one appended line: the rows that became done
// (one Complete's, or those found done at construction) and the lease
// state after them.
type checkpointRecord struct {
	LeaseID int64             `json:"lease_id"`
	Leases  []checkpointLease `json:"leases,omitempty"`
	Rows    []checkpointRow   `json:"rows,omitempty"`
}

// checkpointRow holds the engine's own row marshalling (the bytes the
// result cache would store), so the journal and the cache can never
// disagree about a row's shape.
type checkpointRow struct {
	Seq int `json:"seq"`

	// Key is the coordinator's cache key for the unit at journal time
	// ("" = uncacheable inputs). Resume recomputes keys and refuses a
	// journal whose inputs changed underneath it — resuming would
	// silently mix rows from two versions of a trace or fleet file.
	Key string `json:"key,omitempty"`

	// Row is the completed row's canonical JSON.
	Row json.RawMessage `json:"row"`
}

type checkpointLease struct {
	Seq      int       `json:"seq"`
	Lease    int64     `json:"lease"`
	Deadline time.Time `json:"deadline"`

	// Worker is the lease holder's name ("" in journals written before
	// it was recorded), which lets a resumed RunCoordinator hand back
	// the leases of in-process workers that died with the coordinator.
	Worker string `json:"worker,omitempty"`
}

// Checkpoint is a loaded, validated journal: the input to Resume.
type Checkpoint struct {
	// Dir is the directory the journal was read from; Resume keeps
	// journaling there unless Options.CheckpointDir overrides it.
	Dir string

	// Grid is the defaulted grid of the interrupted sweep.
	Grid sweep.Grid

	// Completed is how many units the journal holds rows for.
	Completed int

	rows    []checkpointRow
	decoded []sweep.RunResult
	leases  []checkpointLease
	leaseID int64
	whole   int64 // the length of the whole records before a torn tail; 0 when none is torn
}

// LoadCheckpoint reads and validates <dir>/journal.json. A torn final
// record — an append the crash cut short — is dropped. Every other
// corruption — a journal of another version, a bad header or record,
// out-of-range or duplicate seqs, rows that do not decode or belong to
// a different scenario, impossible leases — is a loud error: a journal
// that cannot be trusted entirely is not resumed partially.
func LoadCheckpoint(dir string) (*Checkpoint, error) {
	path := filepath.Join(dir, checkpointFileName)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("dist: reading checkpoint: %w", err)
	}
	// The version is read before anything else is decoded, so a
	// journal in another format is refused by name, never misread.
	head, rest, whole := bytes.Cut(data, []byte{'\n'})
	var probe struct {
		Version string `json:"version"`
	}
	if err := json.Unmarshal(head, &probe); err != nil {
		return nil, fmt.Errorf("dist: decoding checkpoint %s: %w", path, err)
	}
	if probe.Version != checkpointVersion {
		return nil, fmt.Errorf("dist: checkpoint %s has version %q, this build speaks %q", path, probe.Version, checkpointVersion)
	}
	var hdr checkpointHeader
	if _, err := jsonx.DecodeStrict(head, &hdr); err != nil {
		return nil, fmt.Errorf("dist: decoding checkpoint %s: %w", path, err)
	}
	if !whole {
		return nil, fmt.Errorf("dist: decoding checkpoint %s: the header line is incomplete", path)
	}
	grid := hdr.Grid.WithDefaults()
	scens, err := sweep.Expand(grid)
	if err != nil {
		return nil, fmt.Errorf("dist: checkpoint %s: expanding journaled grid: %w", path, err)
	}

	ck := &Checkpoint{Dir: dir, Grid: grid}
	seen := make(map[int]bool)
	for n := 1; ; n++ {
		line, after, whole := bytes.Cut(rest, []byte{'\n'})
		if !whole {
			break // end of file, or a torn final record
		}
		rest = after
		var rec checkpointRecord
		if _, err := jsonx.DecodeStrict(line, &rec); err != nil {
			return nil, fmt.Errorf("dist: decoding checkpoint %s: record %d: %w", path, n, err)
		}
		if rec.LeaseID < 0 {
			return nil, fmt.Errorf("dist: checkpoint %s: negative lease id %d", path, rec.LeaseID)
		}
		for _, row := range rec.Rows {
			if row.Seq < 0 || row.Seq >= len(scens) {
				return nil, fmt.Errorf("dist: checkpoint %s: row for unit %d, grid has %d", path, row.Seq, len(scens))
			}
			if seen[row.Seq] {
				return nil, fmt.Errorf("dist: checkpoint %s: duplicate row for unit %d", path, row.Seq)
			}
			seen[row.Seq] = true
			var r sweep.RunResult
			if _, err := jsonx.DecodeStrict(row.Row, &r); err != nil {
				return nil, fmt.Errorf("dist: checkpoint %s: unit %d row does not decode: %w", path, row.Seq, err)
			}
			if r.Scenario != scens[row.Seq] {
				return nil, fmt.Errorf("dist: checkpoint %s: unit %d holds a row for scenario %q, grid expands to %q",
					path, row.Seq, r.Scenario.ID(), scens[row.Seq].ID())
			}
			ck.rows = append(ck.rows, row)
			ck.decoded = append(ck.decoded, r)
		}
		ck.leaseID, ck.leases = rec.LeaseID, rec.Leases
	}
	if len(rest) > 0 {
		ck.whole = int64(len(data) - len(rest))
	}
	ck.Completed = len(ck.rows)
	// The last record's lease table is the live one.
	for _, ls := range ck.leases {
		if ls.Seq < 0 || ls.Seq >= len(scens) {
			return nil, fmt.Errorf("dist: checkpoint %s: lease for unit %d, grid has %d", path, ls.Seq, len(scens))
		}
		if seen[ls.Seq] {
			return nil, fmt.Errorf("dist: checkpoint %s: unit %d is both completed and leased", path, ls.Seq)
		}
		if ls.Lease <= 0 || ls.Lease > ck.leaseID {
			return nil, fmt.Errorf("dist: checkpoint %s: unit %d holds lease %d outside the issued range [1, %d]",
				path, ls.Seq, ls.Lease, ck.leaseID)
		}
	}
	return ck, nil
}

// Resume reconstructs a coordinator from a loaded checkpoint:
// journaled rows are done (Stats.Resumed), journaled leases stay
// live until their deadline, and everything else leases out as
// usual. The resumed coordinator keeps journaling to the
// checkpoint's directory, appending after its last whole record.
func Resume(ck *Checkpoint, opt Options) (*Coordinator, error) {
	if opt.CheckpointDir == "" {
		opt.CheckpointDir = ck.Dir
	}
	return newCoordinator(ck.Grid, opt, ck)
}

// openJournal opens the journal at construction and appends a record
// of the rows found done there. Resuming into the journal's own
// directory cuts off a torn tail and appends; anything else writes the
// header afresh, and then the record also holds the resumed rows.
func (c *Coordinator) openJournal(ck *Checkpoint, found []checkpointRow) error {
	dir := c.opt.CheckpointDir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("dist: checkpoint dir: %w", err)
	}
	path := filepath.Join(dir, checkpointFileName)
	if ck != nil && sameDir(ck.Dir, dir) {
		// The torn tail goes before anything is appended after it.
		var err error
		if ck.whole > 0 {
			err = os.Truncate(path, ck.whole)
		}
		var f *os.File
		if err == nil {
			f, err = os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
		}
		if err != nil {
			return fmt.Errorf("dist: checkpointing: %w", err)
		}
		c.journal = f
	} else {
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("dist: checkpointing: %w", err)
		}
		c.journal = f
		hdr, err := json.Marshal(checkpointHeader{Version: checkpointVersion, Grid: c.grid})
		if err == nil {
			_, err = f.Write(append(hdr, '\n'))
		}
		if err != nil {
			c.closeJournalLocked()
			return fmt.Errorf("dist: checkpointing: %w", err)
		}
		if ck != nil {
			found = slices.Concat(ck.rows, found)
		}
	}
	c.appendJournalLocked(found)
	if c.ckptErr != nil {
		c.closeJournalLocked()
		return c.ckptErr
	}
	return nil
}

// sameDir reports whether a and b name the same directory.
func sameDir(a, b string) bool {
	fa, err := os.Stat(a)
	if err != nil {
		return false
	}
	fb, err := os.Stat(b)
	return err == nil && os.SameFile(fa, fb)
}

// appendJournalLocked appends one record: rows, the lease counter and
// the live-lease table. Callers hold c.mu, so records land in the
// order their changes did. Write failures latch into c.ckptErr
// (surfaced by Wait) and stop the journal: checkpointing was asked
// for, so losing it is loud, but an I/O hiccup must not abort a sweep
// that is otherwise completing fine, and nothing is appended after a
// record that may be torn.
func (c *Coordinator) appendJournalLocked(rows []checkpointRow) {
	if c.journal == nil || c.ckptErr != nil {
		return
	}
	rec := checkpointRecord{LeaseID: c.leaseID, Rows: rows}
	for i := range c.leased {
		u := &c.units[i]
		rec.Leases = append(rec.Leases, checkpointLease{Seq: i, Lease: u.lease, Deadline: u.deadline, Worker: u.worker})
	}
	// Map order is random; seq order keeps a run's journal bytes
	// reproducible.
	slices.SortFunc(rec.Leases, func(a, b checkpointLease) int { return a.Seq - b.Seq })
	data, err := json.Marshal(rec)
	if err == nil {
		_, err = c.journal.Write(append(data, '\n'))
	}
	if err != nil {
		c.setCkptErr(fmt.Errorf("dist: checkpointing: %w", err))
	}
}

// closeJournalLocked closes the journal once the sweep needs no more
// records.
func (c *Coordinator) closeJournalLocked() {
	if c.journal == nil {
		return
	}
	if err := c.journal.Close(); err != nil {
		c.setCkptErr(fmt.Errorf("dist: checkpointing: %w", err))
	}
	c.journal = nil
}

func (c *Coordinator) setCkptErr(err error) {
	if c.ckptErr == nil {
		c.ckptErr = err
	}
}
