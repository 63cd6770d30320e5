package cache

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestKeyLengthPrefixing(t *testing.T) {
	if Key("ab", "c") == Key("a", "bc") {
		t.Error("concatenation-ambiguous parts collide")
	}
	if Key("a", "b") != Key("a", "b") {
		t.Error("identical parts disagree")
	}
	if len(Key("x")) != 64 {
		t.Errorf("key length %d, want 64 hex chars", len(Key("x")))
	}
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, ModeRW)
	if err != nil {
		t.Fatal(err)
	}
	key := Key("scenario-1")
	if _, ok := s.Get(key); ok {
		t.Fatal("empty store reported a hit")
	}
	row := []byte(`{"total_energy_mj": 12.5}`)
	if err := s.Put(key, row); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok || string(got) != string(row) {
		t.Fatalf("Get = %q, %v; want the stored row", got, ok)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Writes != 1 {
		t.Errorf("stats = %+v, want 1 hit, 1 miss, 1 write", st)
	}
	// No stray temp files after publishing.
	matches, _ := filepath.Glob(filepath.Join(dir, "*", ".tmp-*"))
	if len(matches) != 0 {
		t.Errorf("leftover temp files: %v", matches)
	}
}

func TestReadOnlyStoreNeverWrites(t *testing.T) {
	dir := t.TempDir()
	rw, err := Open(dir, ModeRW)
	if err != nil {
		t.Fatal(err)
	}
	key := Key("k")
	if err := rw.Put(key, []byte("row")); err != nil {
		t.Fatal(err)
	}

	ro, err := Open(dir, ModeRO)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := ro.Get(key); !ok || string(got) != "row" {
		t.Fatalf("read-only Get = %q, %v", got, ok)
	}
	if err := ro.Put(Key("new"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, ok := ro.Get(Key("new")); ok {
		t.Error("read-only store persisted a Put")
	}
	if st := ro.Stats(); st.Writes != 0 {
		t.Errorf("read-only store counted %d writes", st.Writes)
	}
}

func TestOpenModes(t *testing.T) {
	if s, err := Open("", ModeOff); err != nil || s != nil {
		t.Errorf("Open(off) = %v, %v; want nil store", s, err)
	}
	if _, err := Open("", ModeRW); err == nil {
		t.Error("rw without a directory did not fail")
	}
	if _, err := Open(filepath.Join(t.TempDir(), "absent"), ModeRO); err == nil {
		t.Error("ro on a missing directory did not fail")
	}
	if _, err := Open(t.TempDir(), Mode("weird")); err == nil {
		t.Error("unknown mode did not fail")
	}
	if _, err := ParseMode("rw"); err != nil {
		t.Error(err)
	}
	if _, err := ParseMode("readwrite"); err == nil || !strings.Contains(err.Error(), "unknown mode") {
		t.Errorf("ParseMode(readwrite) error = %v", err)
	}

	// The nil store is a usable no-op.
	var nilStore *Store
	if _, ok := nilStore.Get(Key("k")); ok {
		t.Error("nil store reported a hit")
	}
	if err := nilStore.Put(Key("k"), []byte("x")); err != nil {
		t.Error(err)
	}
	if nilStore.Mode() != ModeOff || nilStore.Stats() != (Stats{}) {
		t.Error("nil store metadata not zero")
	}
}

func TestCorruptEntryIsAMiss(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, ModeRW)
	if err != nil {
		t.Fatal(err)
	}
	key := Key("k")
	if err := s.Put(key, []byte("good")); err != nil {
		t.Fatal(err)
	}
	// Truncate the entry to zero bytes — e.g. a crashed writer on a
	// filesystem without atomic rename semantics.
	if err := os.WriteFile(s.path(key), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key); ok {
		t.Error("empty entry reported as a hit")
	}
	// Re-putting repairs it.
	if err := s.Put(key, []byte("good")); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(key); !ok || string(got) != "good" {
		t.Errorf("repaired entry Get = %q, %v", got, ok)
	}
}
