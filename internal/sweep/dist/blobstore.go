package dist

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/sweep"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Input shipping: workers without filesystem access to the
// coordinator's trace/fleet paths fetch the bytes over the Blob call
// instead. The store is a construction-time snapshot — every
// file-backed spec in the grid is read once and served from memory —
// so the bytes workers receive are exactly the bytes the
// coordinator's own cache keys fingerprinted, and a file deleted or
// edited mid-sweep cannot split the run across two versions. Workers
// re-hash fetched bytes against the advertised fingerprint before
// use (sweep.BlobSource), so a corrupt blob is a loud reject.

// BlobReply carries one shipped input: the raw file bytes and the
// coordinator's content fingerprint of them (same format as
// trace.Source.Fingerprint / topology.Spec.Fingerprint).
type BlobReply struct {
	Fingerprint string `json:"fingerprint"`
	Data        []byte `json:"data"`
}

type blobEntry struct {
	data []byte
	fp   string
}

// blobKey addresses one snapshotted input: a blob kind
// (sweep.BlobTrace or sweep.BlobTopology) and a spec of that kind.
type blobKey struct{ kind, spec string }

// blobStore is the coordinator-side snapshot of the grid's
// file-backed inputs. Specs that are not file-backed — or whose file
// the coordinator itself cannot read — simply have no entry: workers
// then fall back to local resolution and record the canonical
// ingestion error.
type blobStore map[blobKey]blobEntry

// newBlobStore snapshots every file-backed input the grid references.
func newBlobStore(g sweep.Grid) blobStore {
	bs := blobStore{}
	for _, spec := range g.Traces {
		if src, err := trace.ParseSourceSpec(spec); err == nil && src.IsFile() {
			bs.add(sweep.BlobTrace, spec, src.Path, func(data []byte) (string, error) {
				src.Content = data
				return src.Fingerprint()
			})
		}
	}
	for _, spec := range g.Topologies {
		if s, err := topology.ParseSpec(spec); err == nil && s.IsFile {
			bs.add(sweep.BlobTopology, spec, s.Ref, func(data []byte) (string, error) {
				return s.WithContent(data).Fingerprint()
			})
		}
	}
	return bs
}

// add reads one input file and stores it under (kind, spec) with the
// fingerprint of the bytes read. Unreadable files are skipped, not
// errors: a grid pointing at a missing trace produces error rows, and
// shipping must not turn that into a construction failure.
func (bs blobStore) add(kind, spec, path string, fingerprint func([]byte) (string, error)) {
	data, err := os.ReadFile(path)
	if err != nil {
		return
	}
	if fp, err := fingerprint(data); err == nil {
		bs[blobKey{kind, spec}] = blobEntry{data: data, fp: fp}
	}
}

// Blob implements Backend: it serves one snapshotted input. Unknown
// kinds and specs without a snapshot are permanent errors — the
// worker falls back to local resolution instead of retrying.
func (c *Coordinator) Blob(_ context.Context, kind, spec string) (BlobReply, error) {
	if c.blobs == nil {
		return BlobReply{}, permanentError{fmt.Errorf("dist: input shipping is disabled on this coordinator")}
	}
	if kind != sweep.BlobTrace && kind != sweep.BlobTopology {
		return BlobReply{}, permanentError{fmt.Errorf("dist: unknown blob kind %q (known: %s, %s)", kind, sweep.BlobTrace, sweep.BlobTopology)}
	}
	e, ok := c.blobs[blobKey{kind, spec}]
	if !ok {
		return BlobReply{}, permanentError{fmt.Errorf("dist: no %s blob for spec %q (not file-backed, or unreadable at coordinator start)", kind, spec)}
	}
	c.mu.Lock()
	c.stats.Blobs++
	c.mu.Unlock()
	return BlobReply{Fingerprint: e.fp, Data: e.data}, nil
}

// backendBlobs adapts a Backend into the Runner's sweep.BlobSource:
// the worker-side fetch path. Transient transport failures are
// retried with the worker's usual backoff before giving up, because
// the loader memoizes resolution per spec — a dropped fetch would
// otherwise pin the local (failing) source for the whole sweep.
type backendBlobs struct {
	ctx  context.Context
	b    Backend
	poll time.Duration
}

// Blob implements sweep.BlobSource.
func (bb backendBlobs) Blob(kind, spec string) ([]byte, string, error) {
	var rep BlobReply
	var err error
	for _, wait := range []time.Duration{0, bb.poll, 10 * bb.poll} {
		if wait > 0 {
			select {
			case <-bb.ctx.Done():
				return nil, "", bb.ctx.Err()
			case <-time.After(wait):
			}
		}
		rep, err = bb.b.Blob(bb.ctx, kind, spec)
		if err == nil {
			return rep.Data, rep.Fingerprint, nil
		}
		if isPermanent(err) {
			break
		}
	}
	return nil, "", err
}
