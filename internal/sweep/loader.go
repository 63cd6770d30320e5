package sweep

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/dcsim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// memo is a keyed once-per-key loader: concurrent gets for the same
// key block on a single build and then share the result. Values are
// published immutable — callers must treat them as read-only.
type memo[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*memoEntry[V]

	gets, builds atomic.Int64
}

type memoEntry[V any] struct {
	once sync.Once
	val  V
	err  error
}

func (m *memo[K, V]) get(k K, build func() (V, error)) (V, error) {
	m.gets.Add(1)
	m.mu.Lock()
	if m.m == nil {
		m.m = map[K]*memoEntry[V]{}
	}
	e, ok := m.m[k]
	if !ok {
		e = &memoEntry[V]{}
		m.m[k] = e
	}
	m.mu.Unlock()
	e.once.Do(func() {
		m.builds.Add(1)
		e.val, e.err = build()
	})
	return e.val, e.err
}

// traceKey identifies one ingested (and optionally churned) trace.
type traceKey struct {
	spec      string
	seed      int64
	vms, days int
	churnFrac float64
}

// predKey identifies one prediction set over a trace.
type predKey struct {
	tk                    traceKey
	predictor             string
	historyDays, evalDays int
}

// tracePair is a published trace plus how many VMs churn touched.
type tracePair struct {
	tr       *trace.Trace
	affected int
}

// Blob kinds: which input namespace a shipped spec addresses — a
// trace spec (Grid.Traces) or a topology spec (Grid.Topologies). They
// are also the kind names on the dist wire.
const (
	BlobTrace    = "trace"
	BlobTopology = "topology"
)

// BlobSource ships input bytes to processes that cannot read the
// files a grid references: given a blob kind and a spec, it returns
// the file's content plus the serving side's fingerprint of those
// bytes (the same format Source.Fingerprint/Spec.Fingerprint emit).
// The loader consults it only when a file-backed spec cannot be
// fingerprinted locally, and verifies the fetched bytes hash to the
// advertised fingerprint before trusting them — a corrupt blob is a
// loud error, never a silently-poisoned cache entry.
type BlobSource interface {
	Blob(kind, spec string) (data []byte, fingerprint string, err error)
}

// loader memoizes the expensive inputs of a run. One loader is
// shared by all workers of a sweep, so a 24-scenario grid over one
// trace ingests that trace once and fits ARIMA once; source
// fingerprints (file content hashes), fleet definitions (topology
// files parsed and validated once per spec) and their fingerprints
// are likewise computed once.
type loader struct {
	// blobs, when non-nil, is the remote fallback for file-backed
	// inputs missing on this machine. Set before first use (see
	// Runner.SetBlobSource); the srcs/topoSpecs memos pin whichever
	// resolution each spec got.
	blobs BlobSource

	srcs      memo[string, trace.Source]
	topoSpecs memo[string, topology.Spec]
	traces    memo[traceKey, tracePair]
	preds     memo[predKey, *dcsim.PredictionSet]
	fps       memo[string, string]
	fleets    memo[string, topology.Fleet]
	topoFPs   memo[string, string]
	rebs      memo[string, topology.RebalanceSpec]
}

// LoadStats reports the loader's sharing: how many distinct inputs
// were built versus how many scenario runs asked for one.
type LoadStats struct {
	TraceRequests   int64 `json:"trace_requests"`
	TraceBuilds     int64 `json:"trace_builds"`
	PredictRequests int64 `json:"predict_requests"`
	PredictBuilds   int64 `json:"predict_builds"`

	// SharedPlacements counts the policy calls the allocation memo
	// answered instead of allocating (see memo.go). Dist workers
	// report their memo's hits through it.
	SharedPlacements int64 `json:"shared_placements"`

	// LookaheadComputed counts the allocations idle Run workers
	// computed ahead of their steppers (see lookahead.go), and
	// LookaheadUsed how many of those a stepper used. A stepper's
	// first use of such an entry counts here, not as shared.
	LookaheadComputed int64 `json:"lookahead_computed"`
	LookaheadUsed     int64 `json:"lookahead_used"`
}

func (l *loader) stats() LoadStats {
	return LoadStats{
		TraceRequests:   l.traces.gets.Load(),
		TraceBuilds:     l.traces.builds.Load(),
		PredictRequests: l.preds.gets.Load(),
		PredictBuilds:   l.preds.builds.Load(),
	}
}

// sourceFor resolves a backend spec, giving the synthetic backend the
// sweep's canonical generator shape (DCTraceConfig).
func sourceFor(spec string) (trace.Source, error) {
	src, err := trace.ParseSourceSpec(spec)
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	if syn, ok := src.(trace.SyntheticSource); ok {
		syn.Configure = func(seed int64, vms, days int) trace.Config {
			return DCTraceConfig(seed, vms, days)
		}
		return syn, nil
	}
	return src, nil
}

// traceUsesSeed reports whether a backend spec consumes the trace
// seed at load time. File backends ignore it (their content is the
// file), so scenarios that differ only in seed can share one ingested
// trace — unless churn applies, which draws from seed+99.
func traceUsesSeed(spec string) bool {
	src, err := trace.ParseSourceSpec(spec)
	if err != nil {
		return true // invalid specs fail at load; keying precision is moot
	}
	_, synthetic := src.(trace.SyntheticSource)
	return synthetic
}

// ship is the one ship-and-verify path for file-backed inputs. It
// keeps the local input when its content is readable here; otherwise,
// with a BlobSource wired, it fetches the spec's bytes, attaches them
// with withContent and checks they hash to the server's advertised
// fingerprint. When no blob can be fetched either, the local input is
// returned anyway, so the scenario fails with the canonical local
// ingestion error — identical to what a blob-less run would record.
func ship[T any](blobs BlobSource, kind, spec string, local T,
	fingerprint func(T) (string, error), withContent func([]byte) (T, error)) (T, error) {
	var zero T
	if blobs == nil {
		return local, nil
	}
	if _, err := fingerprint(local); err == nil {
		return local, nil // readable locally; no shipping needed
	}
	data, fp, err := blobs.Blob(kind, spec)
	if err != nil {
		return local, nil // no blob either; fail the canonical local way
	}
	shipped, err := withContent(data)
	if err != nil {
		return zero, fmt.Errorf("sweep: %w", err)
	}
	got, err := fingerprint(shipped)
	if err != nil {
		return zero, fmt.Errorf("sweep: fingerprinting shipped %s %s: %w", kind, spec, err)
	}
	if got != fp {
		return zero, fmt.Errorf("sweep: shipped %s %s is corrupt: content hashes to %q, server advertised %q", kind, spec, got, fp)
	}
	return shipped, nil
}

// source resolves a trace spec once per sweep (see ship).
func (l *loader) source(spec string) (trace.Source, error) {
	return l.srcs.get(spec, func() (trace.Source, error) {
		src, err := sourceFor(spec)
		if err != nil {
			return nil, err
		}
		return ship(l.blobs, BlobTrace, spec, src, trace.Source.Fingerprint,
			func(data []byte) (trace.Source, error) { return trace.SourceWithContent(spec, data) })
	})
}

// topoSpec resolves a topology spec once per sweep (see ship).
func (l *loader) topoSpec(spec string) (topology.Spec, error) {
	return l.topoSpecs.get(spec, func() (topology.Spec, error) {
		s, err := topology.ParseSpec(spec)
		if err != nil {
			return topology.Spec{}, fmt.Errorf("sweep: %w", err)
		}
		return ship(l.blobs, BlobTopology, spec, s, topology.Spec.Fingerprint,
			func(data []byte) (topology.Spec, error) { return s.WithContent(data), nil })
	})
}

// fingerprint returns the memoized content fingerprint of a backend
// spec — the cache-key ingredient that detects edited trace files.
func (l *loader) fingerprint(spec string) (string, error) {
	return l.fps.get(spec, func() (string, error) {
		src, err := l.source(spec)
		if err != nil {
			return "", err
		}
		return src.Fingerprint()
	})
}

// fleet returns the memoized datacenter fleet for a topology spec:
// builtin fleets are materialised once, fleet files are read,
// parsed and validated once per sweep however many scenarios share
// them. The returned fleet is unresolved (relative DCs keep Servers
// 0) — scenarios resolve it against their own MaxServers.
func (l *loader) fleet(spec string) (topology.Fleet, error) {
	return l.fleets.get(spec, func() (topology.Fleet, error) {
		s, err := l.topoSpec(spec)
		if err != nil {
			return topology.Fleet{}, err
		}
		f, err := s.Load()
		if err != nil {
			return topology.Fleet{}, fmt.Errorf("sweep: loading topology %s: %w", spec, err)
		}
		return f, nil
	})
}

// rebalance returns the memoized parsed rebalance spec for a scenario
// ("", "off", "epoch:N[@dispatcher]"). Parsing is cheap; the memo
// keeps the axis on the same one-build-per-spec path as the others.
func (l *loader) rebalance(spec string) (topology.RebalanceSpec, error) {
	return l.rebs.get(spec, func() (topology.RebalanceSpec, error) {
		r, err := topology.ParseRebalanceSpec(spec)
		if err != nil {
			return topology.RebalanceSpec{}, fmt.Errorf("sweep: %w", err)
		}
		return r, nil
	})
}

// topologyFingerprint returns the memoized content fingerprint of a
// topology spec — like trace fingerprints, it detects edited fleet
// files so cached results invalidate.
func (l *loader) topologyFingerprint(spec string) (string, error) {
	return l.topoFPs.get(spec, func() (string, error) {
		s, err := l.topoSpec(spec)
		if err != nil {
			return "", err
		}
		return s.Fingerprint()
	})
}

// trace returns the (possibly churned) trace for a scenario. Churn
// derives its seed as trace seed + 99, the convention the churn
// experiments established, so a churn level is reproducible from the
// scenario alone.
func (l *loader) trace(k traceKey) (tracePair, error) {
	return l.traces.get(k, func() (tracePair, error) {
		src, err := l.source(k.spec)
		if err != nil {
			return tracePair{}, err
		}
		tr, err := src.Load(trace.Request{Seed: k.seed, VMs: k.vms, Days: k.days})
		if err != nil {
			return tracePair{}, fmt.Errorf("sweep: loading trace %s: %w", k.spec, err)
		}
		affected := 0
		if k.churnFrac > 0 {
			cc := trace.DefaultChurnConfig(k.seed + 99)
			cc.ArrivalFraction = k.churnFrac
			cc.DepartureFraction = k.churnFrac
			affected, err = tr.ApplyChurn(cc)
			if err != nil {
				return tracePair{}, fmt.Errorf("sweep: applying churn %+v: %w", k, err)
			}
		}
		return tracePair{tr: tr, affected: affected}, nil
	})
}

// predictions returns the shared prediction set over tr (the trace
// the caller already loaded for k.tk).
func (l *loader) predictions(k predKey, tr *trace.Trace) (*dcsim.PredictionSet, error) {
	return l.preds.get(k, func() (*dcsim.PredictionSet, error) {
		pred, err := newPredictor(k.predictor)
		if err != nil {
			return nil, err
		}
		ps, err := dcsim.Predict(tr, pred, k.historyDays, k.evalDays)
		if err != nil {
			return nil, fmt.Errorf("sweep: predicting %+v: %w", k, err)
		}
		return ps, nil
	})
}
