package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"strings"
)

// Trace-ingestion backends. A Source is where a scenario's utilisation
// trace comes from: the built-in synthetic generator, a CSV file in
// this repository's native long format (see WriteCSV), or a real
// cluster-trace dump normalised by the cluster adapter. Sweeps select
// a backend per scenario through a spec string of the form
//
//	backend            e.g. "synthetic"
//	backend:ref        e.g. "csv:traces/week.csv", "cluster:azure.csv"
//
// parsed by ParseSourceSpec. Sources are stateless descriptions. The
// synthetic backend is generated by its caller (Generate with the
// caller's own config shape); a file backend's Load materialises a
// fresh, caller-owned Trace on every call, so a loaded trace can be
// mutated (churned) without aliasing other scenarios. Fingerprint
// gives a stable content-derived key (file path + content hash for
// file backends) that result caches use to detect stale inputs.

// Request is the shape a scenario asks a file-backed Source for: VMs
// and Days select a prefix of the trace (a file may hold more of
// either than one scenario uses).
type Request struct {
	VMs  int
	Days int
}

// Source is one trace-ingestion backend. Format is the backend name:
// "synthetic" is the generator, which has no file; "csv" reads the
// native long format written by WriteCSV (and cmd/tracegen) — header
// vm_id,class,sample,cpu_pct,mem_pct, one row per (VM, sample) — and
// "cluster" reads real cluster-trace dumps (Azure/Google-style
// reading tables) through the normalisation rules of ReadClusterCSV.
type Source struct {
	// Format is "synthetic", "csv" or "cluster".
	Format string

	// Path is the trace file of a file backend.
	Path string

	// Content, when non-nil, is used instead of reading Path — the
	// shipped-input form built by SourceWithContent. Fingerprints keep
	// Path as their location component so they compare equal to the
	// file-backed source holding the same bytes.
	Content []byte
}

// IsFile reports whether the source reads a file (every backend but
// the synthetic generator). A file's content is the trace, so a file
// source ignores the scenario's seed.
func (s Source) IsFile() bool { return s.Format != "synthetic" }

// Spec returns the canonical spec string that ParseSourceSpec would
// parse back into this source.
func (s Source) Spec() string {
	if !s.IsFile() {
		return s.Format
	}
	return s.Format + ":" + s.Path
}

// Backends lists the registered backend names.
func Backends() []string { return []string{"synthetic", "csv", "cluster"} }

// ParseSourceSpec parses "backend" or "backend:ref" into a Source.
// The synthetic backend takes no ref; csv and cluster require a file
// path ref.
func ParseSourceSpec(spec string) (Source, error) {
	backend, ref := spec, ""
	if i := strings.Index(spec, ":"); i >= 0 {
		backend, ref = spec[:i], spec[i+1:]
	}
	switch backend {
	case "", "synthetic":
		if ref != "" {
			return Source{}, fmt.Errorf("trace: synthetic backend takes no ref, got %q", spec)
		}
		return Source{Format: "synthetic"}, nil
	case "csv":
		if ref == "" {
			return Source{}, fmt.Errorf("trace: csv backend needs a file path, e.g. csv:trace.csv")
		}
		return Source{Format: backend, Path: ref}, nil
	case "cluster":
		if ref == "" {
			return Source{}, fmt.Errorf("trace: cluster backend needs a file path, e.g. cluster:vmtable.csv")
		}
		return Source{Format: backend, Path: ref}, nil
	default:
		return Source{}, fmt.Errorf("trace: unknown trace backend %q (known: %s)",
			backend, strings.Join(Backends(), ", "))
	}
}

// SourceWithContent parses a file-backed spec and attaches data as
// the file's content, so the source loads and fingerprints without
// touching the filesystem. This is how shipped inputs (a distributed
// worker that cannot see the coordinator's paths) reconstruct a
// source from blob bytes: the spec — and therefore the fingerprint's
// path component — stays the coordinator's, while the content comes
// from the wire.
func SourceWithContent(spec string, data []byte) (Source, error) {
	src, err := ParseSourceSpec(spec)
	if err != nil {
		return Source{}, err
	}
	if !src.IsFile() {
		return Source{}, fmt.Errorf("trace: backend %q is not file-backed; it has no content to attach", src.Format)
	}
	src.Content = data
	return src, nil
}

// open returns a reader over the source's bytes: the attached Content
// when there is one, otherwise the file itself, streamed so
// multi-gigabyte cluster dumps never sit in memory.
func (s Source) open() (io.ReadCloser, error) {
	if s.Content != nil {
		return io.NopCloser(bytes.NewReader(s.Content)), nil
	}
	return os.Open(s.Path)
}

// Fingerprint returns a stable key for the backend's content: equal
// fingerprints mean the source answers requests identically. The
// generator is pure code, so "synthetic" is its whole key: the request
// parameters live in the scenario identity, and code changes are
// covered by the result schema version of whoever caches on this
// fingerprint. A file backend's key is the path plus a content hash,
// so a renamed or edited file never aliases a cached result, and a
// shipped copy of a file fingerprints identically to reading it in
// place.
func (s Source) Fingerprint() (string, error) {
	if !s.IsFile() {
		return s.Format, nil
	}
	r, err := s.open()
	if err != nil {
		return "", fmt.Errorf("trace: fingerprinting %s: %w", s.Path, err)
	}
	defer r.Close()
	h := sha256.New()
	if _, err := io.Copy(h, r); err != nil {
		return "", fmt.Errorf("trace: fingerprinting %s: %w", s.Path, err)
	}
	return fmt.Sprintf("%s:%s:%s", s.Format, s.Path, hex.EncodeToString(h.Sum(nil)[:16])), nil
}

// Load reads a file backend's trace, cut down to the requested VM
// count and day span. The file is re-read on every call (callers
// memoize). The synthetic backend has nothing to read: its callers
// Generate the trace instead.
func (s Source) Load(req Request) (*Trace, error) {
	if !s.IsFile() {
		return nil, fmt.Errorf("trace: the %s backend is generated, not loaded", s.Format)
	}
	read := ReadCSV
	if s.Format == "cluster" {
		read = ReadClusterCSV
	}
	r, err := s.open()
	if err != nil {
		return nil, fmt.Errorf("trace: %s backend: %w", s.Format, err)
	}
	defer r.Close()
	tr, err := read(r)
	if err != nil {
		return nil, fmt.Errorf("trace: %s backend: %s: %w", s.Format, s.Path, err)
	}
	return fitTrace(tr, s.Spec(), req)
}

// fitTrace cuts a loaded trace down to a request: the first req.VMs
// VMs and the first req.Days whole days of samples. A file that holds
// less than requested is an error — silently padding would fabricate
// utilisation data.
func fitTrace(tr *Trace, spec string, req Request) (*Trace, error) {
	if req.VMs <= 0 || req.Days <= 0 {
		return nil, fmt.Errorf("trace: %s: requested VMs (%d) and Days (%d) must be positive",
			spec, req.VMs, req.Days)
	}
	if len(tr.VMs) < req.VMs {
		return nil, fmt.Errorf("trace: %s holds %d VMs, scenario needs %d",
			spec, len(tr.VMs), req.VMs)
	}
	samples := req.Days * SamplesPerDay
	if tr.Samples() < samples {
		return nil, fmt.Errorf("trace: %s holds %d samples (%.1f days), scenario needs %d (%d days)",
			spec, tr.Samples(), float64(tr.Samples())/SamplesPerDay, samples, req.Days)
	}
	out := &Trace{Interval: tr.Interval}
	for _, vm := range tr.VMs[:req.VMs] {
		out.VMs = append(out.VMs, &VM{
			ID:    vm.ID,
			Class: vm.Class,
			CPU:   vm.CPU[:samples:samples],
			Mem:   vm.Mem[:samples:samples],
		})
	}
	return out, nil
}
