package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/dcsim"
	"repro/internal/jsonx"
)

// maxWhatIfBody bounds a what-if or session-create request body; the
// delta surface is a handful of short axis lists, so a megabyte is
// already generous.
const maxWhatIfBody = 1 << 20

// maxStepBody bounds a step request body ({"slots": n}).
const maxStepBody = 4096

// maxObserveBody bounds an observe request body: per-VM sample rows
// for one slot. 2000 VMs x 12 samples x 2 resources is well under a
// megabyte of JSON; 16 MiB leaves headroom without inviting abuse.
const maxObserveBody = 16 << 20

// Handler returns the service's HTTP surface:
//
//	GET    /metrics                    OpenMetrics exposition, all sessions, session-labelled
//	GET    /v1/sessions                list live sessions
//	POST   /v1/sessions                create a session (axis delta vs the base grid)
//	GET    /v1/sessions/{id}           session status
//	DELETE /v1/sessions/{id}           retire a session
//	POST   /v1/sessions/{id}/step      advance a session ({"slots": n}, default 1)
//	POST   /v1/sessions/{id}/whatif    scenario-delta query against the session's scenario
//	POST   /v1/sessions/{id}/observe   ingest one observed slot (live-ingestion sessions)
//	GET    /healthz                    liveness probe
//
// Every error is a JSON {"error": …} envelope; 405 responses carry an
// Allow header; unknown paths are a JSON 404.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", allow(s.handleMetrics, http.MethodGet, http.MethodHead))
	mux.HandleFunc("/healthz", allow(handleHealth, http.MethodGet, http.MethodHead))
	mux.HandleFunc("/v1/sessions", allow(s.handleSessions, http.MethodGet, http.MethodPost))
	mux.HandleFunc("/v1/sessions/{id}", allow(s.handleSession, http.MethodGet, http.MethodDelete))
	mux.HandleFunc("/v1/sessions/{id}/step", allow(s.handleSessionStep, http.MethodPost))
	mux.HandleFunc("/v1/sessions/{id}/whatif", allow(s.handleSessionWhatIf, http.MethodPost))
	mux.HandleFunc("/v1/sessions/{id}/observe", allow(s.handleSessionObserve, http.MethodPost))
	// Everything else is a JSON 404 — the mux's default plain-text
	// page would break the error-envelope contract.
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		httpError(w, http.StatusNotFound, "no such endpoint: "+r.URL.Path)
	})
	return mux
}

// allow dispatches on method manually so a rejected method gets the
// JSON error envelope AND the Allow header (the mux's method-pattern
// 405s are plain text).
func allow(h http.HandlerFunc, methods ...string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		for _, m := range methods {
			if r.Method == m {
				h(w, r)
				return
			}
		}
		w.Header().Set("Allow", strings.Join(methods, ", "))
		httpError(w, http.StatusMethodNotAllowed, "method "+r.Method+" not allowed")
	}
}

func handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// The classic text exposition content type; the page also carries
	// the OpenMetrics # EOF terminator, which text-format parsers
	// treat as a comment.
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.WriteMetrics(w)
}

// sessionStatus is the status shape the session endpoints share.
type sessionStatus struct {
	Session  string `json:"session"`
	Scenario string `json:"scenario"`
	Slot     int    `json:"slot"`
	Slots    int    `json:"slots"`
	Done     bool   `json:"done"`
	State    string `json:"state"`
	Ingest   bool   `json:"ingest"`
	Ingested int    `json:"ingested"`
}

func statusOf(sess *Session) sessionStatus {
	snap := sess.Snapshot()
	return sessionStatus{
		Session:  sess.id,
		Scenario: sess.scen.ID(),
		Slot:     snap.Slot,
		Slots:    snap.Slots,
		Done:     snap.Done,
		State:    snap.State,
		Ingest:   snap.Ingest,
		Ingested: snap.Ingested,
	}
}

// sessionFromPath resolves the {id} path segment; a miss answers 404
// and reports !ok.
func (s *Server) sessionFromPath(w http.ResponseWriter, r *http.Request) (*Session, bool) {
	id := r.PathValue("id")
	sess, ok := s.session(id)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Sprintf("no such session %q", id))
	}
	return sess, ok
}

func (s *Server) handleSessions(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodGet {
		list := s.sessionList()
		out := struct {
			Sessions []sessionStatus `json:"sessions"`
		}{Sessions: make([]sessionStatus, len(list))}
		for i, sess := range list {
			out.Sessions[i] = statusOf(sess)
		}
		writeJSON(w, http.StatusOK, out)
		return
	}

	body, code, msg := readBody(w, r, maxWhatIfBody)
	if code != 0 {
		httpError(w, code, msg)
		return
	}
	id, ingest, scen, err := decodeSessionCreate(body, s.grid, s.opt.MaxWhatIfScenarios, s.opt.MaxWhatIfVMs)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	sess, err := s.createSession(id, ingest, scen)
	switch {
	case errors.Is(err, errSessionExists):
		httpError(w, http.StatusConflict, err.Error())
	case errors.Is(err, errSessionLimit):
		httpError(w, http.StatusTooManyRequests, err.Error())
	case err != nil:
		httpError(w, http.StatusBadRequest, err.Error())
	default:
		writeJSON(w, http.StatusCreated, statusOf(sess))
	}
}

func (s *Server) handleSession(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.sessionFromPath(w, r)
	if !ok {
		return
	}
	if r.Method == http.MethodGet {
		writeJSON(w, http.StatusOK, statusOf(sess))
		return
	}
	if err := s.deleteSession(sess.id); err != nil {
		code := http.StatusConflict // the undeletable default session
		if errors.Is(err, errNoSession) {
			code = http.StatusNotFound
		}
		httpError(w, code, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Session string `json:"session"`
		Retired bool   `json:"retired"`
	}{sess.id, true})
}

// stepRequest is the manual-tick body; the zero value steps one slot.
type stepRequest struct {
	Slots int `json:"slots"`
}

// stepResponse reports the replay position after a step. Stepped is
// how many slots THIS request advanced (an ingestion session may stop
// short of the ask at the first un-observed slot).
type stepResponse struct {
	Session string `json:"session"`
	Slot    int    `json:"slot"`
	Slots   int    `json:"slots"`
	Done    bool   `json:"done"`
	State   string `json:"state"`
	Stepped int    `json:"stepped"`
}

// decodeBody parses body as exactly one JSON value into v: unknown
// fields, malformed JSON and anything after the value are rejected
// (typo safety; a second value is a smuggling attempt or a
// concatenation bug). what names the request in the error.
func decodeBody(body []byte, v any, what string) error {
	if _, err := jsonx.DecodeStrict(body, v); errors.Is(err, jsonx.ErrTrailingData) {
		return fmt.Errorf("%s request has trailing data after the JSON object", what)
	} else if err != nil {
		return fmt.Errorf("parsing %s request: %w", what, err)
	}
	return nil
}

// decodeStep parses a step body with the same hermetic gates as the
// what-if decoder. The empty body steps one slot.
func decodeStep(body []byte) (stepRequest, error) {
	var req stepRequest
	if len(body) == 0 {
		return req, nil
	}
	return req, decodeBody(body, &req, "step")
}

// handleSessionStep advances one session. Exhaustion and full gating
// are 409 Conflict — the request cannot make progress in the
// session's current state. Partial progress on a gated ingestion
// session is a 200 whose state says awaiting_samples.
func (s *Server) handleSessionStep(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.sessionFromPath(w, r)
	if !ok {
		return
	}
	body, code, msg := readBody(w, r, maxStepBody)
	if code != 0 {
		httpError(w, code, msg)
		return
	}
	req, err := decodeStep(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	slot, done, stepped, err := sess.Step(req.Slots)
	if err != nil && !errors.Is(err, dcsim.ErrAwaitingSamples) {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if stepped == 0 {
		if err != nil { // gated before the first slot
			httpError(w, http.StatusConflict, err.Error())
			return
		}
		if done {
			httpError(w, http.StatusConflict, "replay exhausted: the session is done")
			return
		}
	}
	snap := sess.Snapshot()
	writeJSON(w, http.StatusOK, stepResponse{
		Session: sess.id, Slot: slot, Slots: snap.Slots,
		Done: done, State: snap.State, Stepped: stepped,
	})
}

// observeRequest carries one observed evaluation slot: cpu[i][k] and
// mem[i][k] are VM i's utilisation percentages for the slot's k-th
// 5-minute sample (12 per slot), VM order as in the session's trace.
type observeRequest struct {
	Slot int         `json:"slot"`
	CPU  [][]float64 `json:"cpu"`
	Mem  [][]float64 `json:"mem"`
}

func (s *Server) handleSessionObserve(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.sessionFromPath(w, r)
	if !ok {
		return
	}
	body, code, msg := readBody(w, r, maxObserveBody)
	if code != 0 {
		httpError(w, code, msg)
		return
	}
	var req observeRequest
	if err := decodeBody(body, &req, "observe"); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	ingested, err := sess.Observe(req.Slot, req.CPU, req.Mem)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, errNotIngest) || errors.Is(err, dcsim.ErrObserveOrder) {
			code = http.StatusConflict
		}
		httpError(w, code, err.Error())
		return
	}
	snap := sess.Snapshot()
	writeJSON(w, http.StatusOK, struct {
		Session  string `json:"session"`
		Ingested int    `json:"ingested"`
		State    string `json:"state"`
	}{sess.id, ingested, snap.State})
}

// handleSessionWhatIf answers a what-if against one session: axis
// deltas apply to the session's own scenario (for the default session
// that is exactly the base grid), and {"fork": true} replays the
// session's carried stepper state to the end of the horizon instead.
func (s *Server) handleSessionWhatIf(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.sessionFromPath(w, r)
	if !ok {
		return
	}
	body, code, msg := readBody(w, r, maxWhatIfBody)
	if code != 0 {
		s.rejectWhatIf(sess, w, code, msg)
		return
	}
	req, scens, err := decodeWhatIf(body, gridForScenario(s.grid, sess.scen), s.opt.MaxWhatIfScenarios, s.opt.MaxWhatIfVMs)
	if err != nil {
		s.rejectWhatIf(sess, w, http.StatusBadRequest, err.Error())
		return
	}
	if req.Fork {
		s.serveFork(w, sess)
		return
	}
	writeJSON(w, http.StatusOK, sess.whatIf(s, scens))
}

// rejectWhatIf records a rejected request on the session and answers
// with the JSON error envelope.
func (s *Server) rejectWhatIf(sess *Session, w http.ResponseWriter, code int, msg string) {
	sess.wmu.Lock()
	sess.wst.rejected++
	sess.wmu.Unlock()
	httpError(w, code, msg)
}

// readBody drains a size-capped request body. A non-zero code means
// the caller must answer (code, msg) — 413 for the size cap, 400 for
// transport errors (previously mislabelled "request body too large").
func readBody(w http.ResponseWriter, r *http.Request, limit int64) (body []byte, code int, msg string) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return nil, http.StatusRequestEntityTooLarge, "request body too large"
		}
		return nil, http.StatusBadRequest, "reading request body: " + err.Error()
	}
	return body, 0, ""
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// httpError answers the uniform JSON error envelope every endpoint
// shares: {"error": msg}.
func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
