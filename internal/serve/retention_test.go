package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
)

// liveHeapMB is the live heap after two collections, in MB.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// TestWhatIfInputsDoNotOutliveTheirRequest: a what-if over a trace no
// session holds resolves it on a Runner that lives for the one
// request, so distinct-seed what-ifs leave the daemon's live heap
// flat (each 200-VM trace and its predictions weigh about 2 MB), and a
// session's own trace is released with the session.
func TestWhatIfInputsDoNotOutliveTheirRequest(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	const delta = `"vms":[200],"policies":["FFD"],"topologies":["single"],"rebalances":["off"]`
	whatIf := func(seed int) {
		body := fmt.Sprintf(`{"seeds":[%d],%s}`, seed, delta)
		if code, _, resp := doReq(t, ts, http.MethodPost, "/v1/sessions/default/whatif", body); code != http.StatusOK {
			t.Fatalf("what-if seed %d: status %d: %s", seed, code, resp)
		}
	}

	const seeds, boundMB = 24, 1.0
	whatIf(5000)
	first := liveHeapMB()
	reads := []float64{first}
	for i := 1; i < seeds; i++ {
		whatIf(5000 + i)
		if (i+1)%4 == 0 {
			reads = append(reads, liveHeapMB())
		}
	}
	t.Logf("live heap after every 4th of %d distinct-seed what-ifs: %.1f MB", seeds, reads)
	last := reads[len(reads)-1]
	if last-first > boundMB {
		t.Fatalf("live heap grew %.1f MB over %d distinct-seed what-ifs (bound %.1f MB): what-if traces outlive their requests",
			last-first, seeds-1, boundMB)
	}

	body := fmt.Sprintf(`{"id":"seed6000","seeds":[6000],%s}`, delta)
	if code, _, resp := doReq(t, ts, http.MethodPost, "/v1/sessions", body); code != http.StatusCreated {
		t.Fatalf("creating session: status %d: %s", code, resp)
	}
	if code, _, resp := doReq(t, ts, http.MethodDelete, "/v1/sessions/seed6000", ""); code != http.StatusOK {
		t.Fatalf("deleting session: status %d: %s", code, resp)
	}
	if after := liveHeapMB(); after-last > boundMB {
		t.Fatalf("live heap grew %.1f MB after a session on a new seed was created and deleted (bound %.1f MB)",
			after-last, boundMB)
	}
}
