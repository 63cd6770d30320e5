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
// parsed by ParseSourceSpec. Sources are stateless descriptions —
// Load materialises a fresh, caller-owned Trace on every call, so a
// loaded trace can be mutated (churned) without aliasing other
// scenarios — and Fingerprint gives a stable content-derived key
// (file path + content hash for file backends) that result caches use
// to detect stale inputs.

// Request is the shape a scenario asks a Source for. Seed drives
// generation for the synthetic backend and is ignored by file
// backends; VMs and Days select a prefix of file-backed traces (a
// file may hold more of either than one scenario uses).
type Request struct {
	Seed int64
	VMs  int
	Days int
}

// Source is a pluggable trace-ingestion backend.
type Source interface {
	// Backend returns the backend name ("synthetic", "csv", ...).
	Backend() string

	// Spec returns the canonical spec string that ParseSourceSpec
	// would parse back into this source.
	Spec() string

	// Fingerprint returns a stable key for the backend's content:
	// equal fingerprints mean Load answers requests identically. File
	// backends hash the file contents, so editing a trace file
	// changes the fingerprint (and invalidates cached results).
	Fingerprint() (string, error)

	// Load materialises the trace for one request. The returned trace
	// is owned by the caller (never shared between Load calls).
	Load(req Request) (*Trace, error)
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
			return nil, fmt.Errorf("trace: synthetic backend takes no ref, got %q", spec)
		}
		return SyntheticSource{}, nil
	case "csv":
		if ref == "" {
			return nil, fmt.Errorf("trace: csv backend needs a file path, e.g. csv:trace.csv")
		}
		return FileSource{Format: backend, Path: ref}, nil
	case "cluster":
		if ref == "" {
			return nil, fmt.Errorf("trace: cluster backend needs a file path, e.g. cluster:vmtable.csv")
		}
		return FileSource{Format: backend, Path: ref}, nil
	default:
		return nil, fmt.Errorf("trace: unknown trace backend %q (known: %s)",
			backend, strings.Join(Backends(), ", "))
	}
}

// SyntheticSource is the built-in generator backend. Configure maps a
// request onto a generator config; nil uses DefaultConfig with the
// request's shape.
type SyntheticSource struct {
	Configure func(seed int64, vms, days int) Config
}

// Backend implements Source.
func (SyntheticSource) Backend() string { return "synthetic" }

// Spec implements Source.
func (SyntheticSource) Spec() string { return "synthetic" }

// Fingerprint implements Source. The generator is pure code, so the
// backend name is the whole key: the request parameters live in the
// scenario identity, and code changes are covered by the result
// schema version of whoever caches on this fingerprint.
func (SyntheticSource) Fingerprint() (string, error) { return "synthetic", nil }

// Load implements Source.
func (s SyntheticSource) Load(req Request) (*Trace, error) {
	cfg := Config{}
	if s.Configure != nil {
		cfg = s.Configure(req.Seed, req.VMs, req.Days)
	} else {
		cfg = DefaultConfig(req.Seed)
		cfg.VMs = req.VMs
		cfg.Days = req.Days
	}
	return Generate(cfg)
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
		return nil, err
	}
	fs, ok := src.(FileSource)
	if !ok {
		return nil, fmt.Errorf("trace: backend %q is not file-backed; it has no content to attach", src.Backend())
	}
	fs.Content = data
	return fs, nil
}

// FileSource ingests a trace file. Format is the backend name and
// selects the parser: "csv" reads the native long format written by
// WriteCSV (and cmd/tracegen) — header vm_id,class,sample,cpu_pct,
// mem_pct, one row per (VM, sample) — and "cluster" reads real
// cluster-trace dumps (Azure/Google-style reading tables) through the
// normalisation rules of ReadClusterCSV.
type FileSource struct {
	// Format is "csv" or "cluster".
	Format string

	// Path is the trace file.
	Path string

	// Content, when non-nil, is used instead of reading Path — the
	// shipped-input form built by SourceWithContent. Fingerprints keep
	// Path as their location component so they compare equal to the
	// file-backed source holding the same bytes.
	Content []byte
}

// Backend implements Source.
func (s FileSource) Backend() string { return s.Format }

// Spec implements Source.
func (s FileSource) Spec() string { return s.Format + ":" + s.Path }

// open returns a reader over the source's bytes: the attached Content
// when there is one, otherwise the file itself, streamed so
// multi-gigabyte cluster dumps never sit in memory.
func (s FileSource) open() (io.ReadCloser, error) {
	if s.Content != nil {
		return io.NopCloser(bytes.NewReader(s.Content)), nil
	}
	return os.Open(s.Path)
}

// Fingerprint implements Source: the path plus a content hash, so a
// renamed or edited file never aliases a cached result, and a shipped
// copy of a file fingerprints identically to reading it in place.
func (s FileSource) Fingerprint() (string, error) {
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

// Load implements Source: the file is re-read on every call (callers
// memoize), then cut down to the requested VM count and day span.
func (s FileSource) Load(req Request) (*Trace, error) {
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
