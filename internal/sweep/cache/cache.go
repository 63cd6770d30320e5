// Package cache is the incremental result store of the sweep engine:
// a content-addressed on-disk map from scenario keys to result rows,
// so re-running a grid only executes the scenarios whose inputs
// changed since the last run.
//
// Keys are sha256 digests computed by Key over everything that
// determines a scenario's result — the scenario identity, the trace
// source fingerprint (file path + content hash for file-backed
// traces), the resolved transition model, and the engine's result
// schema version. Anything outside that set (worker count, wall-clock
// time, cache state itself) must never influence a row, which is the
// sweep engine's determinism contract: a cache hit returns the exact
// bytes a fresh execution would produce.
//
// The store is safe for concurrent use by the worker pool: entries
// are written to a temporary file and renamed into place, so readers
// never observe a partial row. Corrupt or unreadable entries are
// treated as misses, not errors — the scenario simply re-executes and
// rewrites the entry.
package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
)

// Mode selects how a sweep uses the store.
type Mode string

const (
	// ModeOff disables caching entirely.
	ModeOff Mode = "off"

	// ModeRW reads hits and writes freshly executed rows — the normal
	// incremental-sweep mode.
	ModeRW Mode = "rw"

	// ModeRO reads hits but never writes, for reproducing from a
	// sealed store (e.g. a CI artifact) without mutating it.
	ModeRO Mode = "ro"
)

// ParseMode validates a mode string (the -cache flag values).
func ParseMode(s string) (Mode, error) {
	switch Mode(s) {
	case ModeOff, ModeRW, ModeRO:
		return Mode(s), nil
	default:
		return "", fmt.Errorf("cache: unknown mode %q (known: off, rw, ro)", s)
	}
}

// Stats counts one sweep's cache traffic.
type Stats struct {
	// Hits is how many scenarios were answered from the store.
	Hits int64 `json:"hits"`

	// Misses is how many scenarios had no usable entry and executed.
	Misses int64 `json:"misses"`

	// Writes is how many freshly executed rows were persisted.
	Writes int64 `json:"writes"`
}

// Store is an on-disk result store. A nil *Store is a valid "no
// caching" store: Get always misses and Put does nothing.
type Store struct {
	dir  string
	mode Mode

	hits, misses, writes atomic.Int64
}

// Open prepares a store rooted at dir. ModeRW creates the directory;
// ModeRO requires it to exist. ModeOff returns a nil store (the
// no-caching value) so callers can pass the result straight through.
func Open(dir string, mode Mode) (*Store, error) {
	switch mode {
	case ModeOff:
		return nil, nil
	case ModeRW:
		if dir == "" {
			return nil, fmt.Errorf("cache: mode %s needs a cache directory", mode)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("cache: creating %s: %w", dir, err)
		}
	case ModeRO:
		if dir == "" {
			return nil, fmt.Errorf("cache: mode %s needs a cache directory", mode)
		}
		info, err := os.Stat(dir)
		if err != nil {
			return nil, fmt.Errorf("cache: opening read-only store: %w", err)
		}
		if !info.IsDir() {
			return nil, fmt.Errorf("cache: %s is not a directory", dir)
		}
	default:
		return nil, fmt.Errorf("cache: unknown mode %q", mode)
	}
	return &Store{dir: dir, mode: mode}, nil
}

// Key digests the ordered parts that determine one result row into a
// content address. Parts are length-prefixed before hashing so
// ("ab","c") and ("a","bc") cannot collide.
func Key(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:", len(p))
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// path shards entries by the first key byte to keep directories flat.
func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key[:2], key[2:]+".json")
}

// Get returns the stored row for key, or ok=false on any miss
// (absent, unreadable, or empty entry).
func (s *Store) Get(key string) (row []byte, ok bool) {
	if s == nil {
		return nil, false
	}
	data, err := os.ReadFile(s.path(key))
	if err != nil || len(data) == 0 {
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	return data, true
}

// Put persists a freshly executed row. In ModeRO it is a no-op; write
// failures are returned so the caller can surface them (a broken
// cache disk should not be silent), but the sweep's results are
// already complete at that point.
func (s *Store) Put(key string, row []byte) error {
	if s == nil || s.mode != ModeRW {
		return nil
	}
	path := s.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	if _, err := tmp.Write(row); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("cache: writing entry: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("cache: writing entry: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("cache: publishing entry: %w", err)
	}
	s.writes.Add(1)
	return nil
}

// Mode reports how the store was opened ("" for the nil store).
func (s *Store) Mode() Mode {
	if s == nil {
		return ModeOff
	}
	return s.mode
}

// Stats returns the traffic counters accumulated so far.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	return Stats{
		Hits:   s.hits.Load(),
		Misses: s.misses.Load(),
		Writes: s.writes.Load(),
	}
}
