package dist

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dcsim"
	"repro/internal/sweep"
)

// TestHTTPEndToEndDeterminism runs the real wire protocol: a coordinator behind
// an HTTP server, three workers over the JSON client — one of which
// "crashes" after leasing (its units recover via the short TTL) — and
// the merged output must still match the single-process engine
// byte-for-byte. http-a's second Lease waits until http-b holds a
// unit, so all three workers are granted one however the scheduler
// orders the two.
func TestHTTPEndToEndDeterminism(t *testing.T) {
	c, err := NewCoordinator(testGrid(), Options{LeaseTTL: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(c))
	defer srv.Close()
	ctx := context.Background()

	// The crasher's transport is guillotined right after its first
	// lease lands (faultTransport): it holds a unit it can never
	// complete — a worker kill -9'd mid-row — and it recovers via the
	// short TTL.
	crasher := newFaultTransport(NewClient(srv.URL), 3).quiet()
	crasher.killAfterLeases = 1
	if _, err := Work(ctx, crasher, WorkerOptions{Name: "crasher", Poll: time.Millisecond}); err == nil {
		t.Fatal("kill -9'd worker reported success")
	}

	bHolds := make(chan struct{})
	backends := []Backend{
		&leaseGate{Backend: NewClient(srv.URL), wait: bHolds},
		&leaseGate{Backend: NewClient(srv.URL), granted: bHolds},
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = Work(ctx, backends[i], WorkerOptions{Name: []string{"http-a", "http-b"}[i], Poll: 10 * time.Millisecond})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}

	res, err := c.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Failed(); err != nil {
		t.Fatal(err)
	}
	want, err := sweep.Run(testGrid(), sweep.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.CSV() != want.CSV() {
		t.Errorf("HTTP-distributed CSV differs from engine:\n%s\nvs\n%s", res.CSV(), want.CSV())
	}
	stats := c.Stats()
	if stats.Expired < 1 {
		t.Errorf("stats.Expired = %d, want >= 1 (the crasher's lease)", stats.Expired)
	}
	if stats.Workers != 3 {
		t.Errorf("stats.Workers = %d, want 3 (crasher included)", stats.Workers)
	}
}

// leaseGate orders two workers' leases: the worker whose gate has a
// wait channel makes its second Lease call only once that channel is
// closed, and the worker whose gate has a granted channel closes it
// when its first unit is granted. Work leases from one goroutine.
type leaseGate struct {
	Backend
	wait, granted chan struct{}
	calls         int
}

func (g *leaseGate) Lease(ctx context.Context, worker string, max int) (LeaseReply, error) {
	if g.calls++; g.calls == 2 && g.wait != nil {
		select {
		case <-g.wait:
		case <-ctx.Done():
			return LeaseReply{}, ctx.Err()
		}
	}
	reply, err := g.Backend.Lease(ctx, worker, max)
	if err == nil && len(reply.Units) > 0 && g.granted != nil {
		close(g.granted)
		g.granted = nil
	}
	return reply, err
}

// TestHTTPGridRoundTripsCustomModels: the /v1/grid payload must carry
// enough for a worker to rebuild the exact Runner — including custom
// transition models that only live in the grid.
func TestHTTPGridRoundTripsCustomModels(t *testing.T) {
	g := testGrid()
	dm := dcsim.DefaultTransitions()
	g.Transitions = []sweep.TransitionSpec{{Name: "custom", Model: &dm}}

	c, err := NewCoordinator(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(c))
	defer srv.Close()

	got, err := NewClient(srv.URL).Grid(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Transitions) != 1 || got.Transitions[0].Model == nil {
		t.Fatalf("custom transition model lost over the wire: %+v", got.Transitions)
	}
	if *got.Transitions[0].Model != dm {
		t.Errorf("model drifted over the wire: %+v vs %+v", *got.Transitions[0].Model, dm)
	}
	// And the full loop still completes and matches the engine.
	res, _, err := runLocal(context.Background(), g, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := sweep.Run(g, sweep.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.CSV() != want.CSV() {
		t.Error("custom-model grid: distributed CSV differs from engine")
	}
}

// TestClientErrorsAreLoud: a client pointed at a server that speaks
// the protocol must surface coordinator-side rejections as errors.
func TestClientErrorsAreLoud(t *testing.T) {
	c, err := NewCoordinator(testGrid(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(c))
	defer srv.Close()
	cl := NewClient(srv.URL)
	ctx := context.Background()

	if err := cl.Complete(ctx, "w", []UnitResult{{Seq: 10_000}}, sweep.LoadStats{}); err == nil {
		t.Error("out-of-range completion accepted over HTTP")
	}
	if _, err := NewClient("127.0.0.1:1").Grid(ctx); err == nil {
		t.Error("unreachable coordinator produced no error")
	}
}

// TestHTTPRequestBodyGates: every POST endpoint decodes its body the
// way ntc-serve does — unknown fields and trailing data are 400, a
// body beyond maxRequestBody is 413 — and a rejected lease request
// leases nothing.
func TestHTTPRequestBodyGates(t *testing.T) {
	c, err := NewCoordinator(oneUnitGrid(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandler(c)
	post := func(path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		return rec
	}
	oversized := `{"worker":"w"}` + strings.Repeat(" ", maxRequestBody)
	for _, path := range []string{"/v1/lease", "/v1/renew", "/v1/complete", "/v1/release", "/v1/blob"} {
		for _, tc := range []struct {
			name, body string
			code       int
		}{
			{"unknown field and trailing data", `{"worker":"w","max":1,"bogus":1} garbage`, http.StatusBadRequest},
			{"unknown field", `{"worker":"w","bogus":1}`, http.StatusBadRequest},
			{"trailing data", `{"worker":"w"} garbage`, http.StatusBadRequest},
			{"second object", `{"worker":"w"}{"worker":"w"}`, http.StatusBadRequest},
			{"trailing bracket", `{"worker":"w"}]`, http.StatusBadRequest},
			{"oversized", oversized, http.StatusRequestEntityTooLarge},
		} {
			if rec := post(path, tc.body); rec.Code != tc.code {
				t.Errorf("%s %s: status %d (%s), want %d", path, tc.name, rec.Code, strings.TrimSpace(rec.Body.String()), tc.code)
			}
		}
	}
	checkInvariants(t, c)
	if got := c.Stats().Workers; got != 0 {
		t.Errorf("rejected requests registered %d workers, want 0", got)
	}

	// The gates reject only what is malformed: the same lease without
	// the bogus field and the trailing data is granted.
	rec := post("/v1/lease", `{"worker":"w","max":1}`+"\n")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"units":[{`) {
		t.Errorf("well-formed lease: status %d, body %s", rec.Code, rec.Body.String())
	}
}
