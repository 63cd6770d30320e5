package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/jsonx"
	"repro/internal/sweep"
)

// The HTTP transport maps the Backend calls onto a JSON API:
//
//	GET  /v1/grid      -> sweep.Grid
//	POST /v1/lease     {"worker": "...", "max": 1} -> LeaseReply
//	POST /v1/renew     {"worker": "...", "units": [{"seq", "lease"}]} -> {}
//	POST /v1/complete  {"worker": "...", "results": [...], "load": {...}} -> {}
//	POST /v1/release   {"worker": "...", "units": [{"seq", "lease"}]} -> {}
//	POST /v1/blob      {"kind": "trace"|"topology", "spec": "..."} -> {"fingerprint", "data"}
//
// The protocol is deliberately dumb — stateless requests, leases as
// opaque integers, rows as the engine's own JSON — so a worker can be
// anything that speaks JSON over HTTP, and the coordinator remains
// the single source of truth for ordering, retries, and the cache.

// maxRequestBody bounds every POST body before it is decoded (413
// beyond it). The largest requests are completions: a row encodes to
// about 0.7 KB for a one-DC scenario plus about 0.3 KB per DC (a
// uniform@triad row with epoch rebalancing and default transitions
// measured 1.5 KB), and a worker completes each row on its own, so a
// completion is about 2 KB with its load stats and cache key. 8 MiB
// leaves room for a library client completing thousands of rows in one
// call, or one row over a fleet of thousands of DCs; renewals and
// releases of large batches (about 25 B per unit) fit with room to
// spare.
const maxRequestBody = 8 << 20

type leaseRequest struct {
	Worker string `json:"worker"`
	Max    int    `json:"max"`
}

type completeRequest struct {
	Worker  string          `json:"worker"`
	Results []UnitResult    `json:"results"`
	Load    sweep.LoadStats `json:"load"`
}

type renewRequest struct {
	Worker string    `json:"worker"`
	Units  []UnitRef `json:"units"`
}

type blobRequest struct {
	Kind string `json:"kind"`
	Spec string `json:"spec"`
}

// NewHandler exposes a coordinator over the HTTP/JSON protocol.
func NewHandler(c *Coordinator) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/grid", func(w http.ResponseWriter, r *http.Request) {
		g, _ := c.Grid(r.Context())
		writeJSON(w, g)
	})
	mux.HandleFunc("POST /v1/lease", func(w http.ResponseWriter, r *http.Request) {
		var req leaseRequest
		if !readJSON(w, r, &req) {
			return
		}
		reply, err := c.Lease(r.Context(), req.Worker, req.Max)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, reply)
	})
	mux.HandleFunc("POST /v1/renew", func(w http.ResponseWriter, r *http.Request) {
		var req renewRequest
		if !readJSON(w, r, &req) {
			return
		}
		if err := c.Renew(r.Context(), req.Worker, req.Units); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, struct{}{})
	})
	mux.HandleFunc("POST /v1/complete", func(w http.ResponseWriter, r *http.Request) {
		var req completeRequest
		if !readJSON(w, r, &req) {
			return
		}
		// Protocol violations (unknown units, scenario mismatches) are
		// the client's fault: 400, so a confused worker fails loudly
		// instead of the coordinator hanging on a never-completed unit.
		if err := c.Complete(r.Context(), req.Worker, req.Results, req.Load); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		writeJSON(w, struct{}{})
	})
	mux.HandleFunc("POST /v1/release", func(w http.ResponseWriter, r *http.Request) {
		var req renewRequest
		if !readJSON(w, r, &req) {
			return
		}
		if err := c.Release(r.Context(), req.Worker, req.Units); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, struct{}{})
	})
	mux.HandleFunc("POST /v1/blob", func(w http.ResponseWriter, r *http.Request) {
		var req blobRequest
		if !readJSON(w, r, &req) {
			return
		}
		// A spec with no snapshot is 404: permanent on the client, so
		// the worker falls back to its own filesystem instead of
		// retrying a blob that will never exist.
		rep, err := c.Blob(r.Context(), req.Kind, req.Spec)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		writeJSON(w, rep)
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// readJSON decodes a request body holding exactly one JSON object
// into v, with the gates ntc-serve applies to its request bodies: at
// most maxRequestBody bytes (413 beyond), no unknown fields and no
// data after the object (400). On failure it answers the request and returns
// false.
func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBody))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			http.Error(w, "request body too large", http.StatusRequestEntityTooLarge)
			return false
		}
		http.Error(w, fmt.Sprintf("reading request: %v", err), http.StatusBadRequest)
		return false
	}
	if _, err := jsonx.DecodeStrict(body, v); errors.Is(err, jsonx.ErrTrailingData) {
		http.Error(w, "decoding request: trailing data after the JSON object", http.StatusBadRequest)
		return false
	} else if err != nil {
		http.Error(w, fmt.Sprintf("decoding request: %v", err), http.StatusBadRequest)
		return false
	}
	return true
}

// Client is the worker-side HTTP transport: a Backend that forwards
// every call to a remote coordinator.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient returns a Backend talking to the coordinator at addr
// ("host:port" or a full http:// URL).
func NewClient(addr string) *Client {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return &Client{
		base: strings.TrimRight(addr, "/"),
		// Lease/complete requests are small and quick; a generous
		// timeout only bounds a hung coordinator.
		hc: &http.Client{Timeout: 2 * time.Minute},
	}
}

// Grid implements Backend.
func (c *Client) Grid(ctx context.Context) (sweep.Grid, error) {
	var g sweep.Grid
	err := c.call(ctx, http.MethodGet, "/v1/grid", nil, &g)
	return g, err
}

// Lease implements Backend.
func (c *Client) Lease(ctx context.Context, worker string, max int) (LeaseReply, error) {
	var reply LeaseReply
	err := c.call(ctx, http.MethodPost, "/v1/lease", leaseRequest{Worker: worker, Max: max}, &reply)
	return reply, err
}

// Renew implements Backend.
func (c *Client) Renew(ctx context.Context, worker string, refs []UnitRef) error {
	var out struct{}
	return c.call(ctx, http.MethodPost, "/v1/renew", renewRequest{Worker: worker, Units: refs}, &out)
}

// Complete implements Backend.
func (c *Client) Complete(ctx context.Context, worker string, results []UnitResult, load sweep.LoadStats) error {
	var out struct{}
	return c.call(ctx, http.MethodPost, "/v1/complete",
		completeRequest{Worker: worker, Results: results, Load: load}, &out)
}

// Release implements Backend.
func (c *Client) Release(ctx context.Context, worker string, refs []UnitRef) error {
	var out struct{}
	return c.call(ctx, http.MethodPost, "/v1/release", renewRequest{Worker: worker, Units: refs}, &out)
}

// Blob implements Backend.
func (c *Client) Blob(ctx context.Context, kind, spec string) (BlobReply, error) {
	var rep BlobReply
	err := c.call(ctx, http.MethodPost, "/v1/blob", blobRequest{Kind: kind, Spec: spec}, &rep)
	return rep, err
}

func (c *Client) call(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		err := fmt.Errorf("coordinator %s: %s: %s", path, resp.Status, strings.TrimSpace(string(msg)))
		// 4xx are protocol rejections (divergent inputs, bad seq):
		// re-sending the identical request cannot succeed, so mark
		// them permanent and let the worker fail fast instead of
		// burning its transient-failure backoff.
		if resp.StatusCode >= 400 && resp.StatusCode < 500 {
			return permanentError{err}
		}
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// permanentError marks a failure retrying cannot fix.
type permanentError struct{ error }

func (p permanentError) Unwrap() error { return p.error }

// isPermanent reports whether err is a protocol-level rejection.
func isPermanent(err error) bool {
	var p permanentError
	return errors.As(err, &p)
}
