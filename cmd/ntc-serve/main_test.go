package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer is a goroutine-safe stderr sink: serveHTTP writes its
// banners from the serving goroutine while the test reads.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// smallArgs is a fast live scenario: triad under the epoch
// rebalancer, one eval day (24 slots), ephemeral port.
func smallArgs(extra ...string) []string {
	args := []string{
		"-addr", "127.0.0.1:0",
		"-vms", "48", "-max-servers", "48",
		"-days", "1", "-history", "1",
		"-predictor", "oracle", "-transitions", "default",
		"-topology", "triad", "-rebalance", "epoch:4",
	}
	return append(args, extra...)
}

func TestSetupRejectsBadFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"unknown-flag", []string{"-definitely-not-a-flag"}},
		{"positional-args", smallArgs("stray")},
		{"bad-policy", smallArgs("-policy", "nope")},
		{"bad-rebalance", smallArgs("-rebalance", "epoch:zero")},
		{"bad-cache-mode", smallArgs("-cache", "sideways")},
		{"cache-without-dir", smallArgs("-cache", "rw")},
		{"bad-power-model", smallArgs("-power-model", "sdp")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var errb syncBuffer
			_, ln, _, err := setup(tc.args, &errb)
			if err == nil {
				ln.Close()
				t.Fatalf("setup(%v) accepted", tc.args)
			}
		})
	}
}

// TestServeEndToEnd boots the daemon on an ephemeral port and drives
// the manual-tick loop over real HTTP: health, step, status, scrape.
func TestServeEndToEnd(t *testing.T) {
	var errb syncBuffer
	s, ln, tick, err := setup(smallArgs("-cache", "rw", "-cache-dir", t.TempDir()), &errb)
	if err != nil {
		t.Fatalf("setup: %v", err)
	}
	defer ln.Close()
	if tick != 0 {
		t.Fatalf("default tick = %v, want 0 (manual)", tick)
	}
	go serveHTTP(s, ln, tick, &errb) //nolint:errcheck // closing ln ends it

	base := "http://" + ln.Addr().String()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never became healthy: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	resp, err := http.Post(base+"/v1/sessions/default/step", "application/json", strings.NewReader(`{"slots": 6}`))
	if err != nil {
		t.Fatalf("POST /v1/sessions/default/step: %v", err)
	}
	var sr struct {
		Slot  int  `json:"slot"`
		Slots int  `json:"slots"`
		Done  bool `json:"done"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatalf("decoding step response: %v", err)
	}
	resp.Body.Close()
	if sr.Slot != 6 || sr.Slots != 24 || sr.Done {
		t.Fatalf("step response %+v, want slot 6 of 24", sr)
	}

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	page, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"ntc_slot{session=\"default\"} 6\n",
		"ntc_slots{session=\"default\"} 24\n",
		`ntc_dc_active_servers{session="default",dc="core"}`,
		"# EOF\n",
	} {
		if !strings.Contains(string(page), want) {
			t.Fatalf("/metrics page missing %q:\n%s", want, page)
		}
	}

	// A second session shards the same page under its own label.
	resp, err = http.Post(base+"/v1/sessions", "application/json",
		strings.NewReader(`{"id": "hot", "static_power_w": [30]}`))
	if err != nil {
		t.Fatalf("POST /v1/sessions: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /v1/sessions: status %d", resp.StatusCode)
	}
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	page, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"ntc_slot{session=\"default\"} 6\n",
		"ntc_slot{session=\"hot\"} 0\n",
	} {
		if !strings.Contains(string(page), want) {
			t.Fatalf("/metrics page missing %q:\n%s", want, page)
		}
	}

	// A what-if against the empty-but-writable store executes, and
	// the identical repeat answers warm with zero executions.
	whatif := func() (executed, hits int) {
		resp, err := http.Post(base+"/v1/sessions/default/whatif", "application/json",
			strings.NewReader(`{"policies": ["EPACT", "COAT"]}`))
		if err != nil {
			t.Fatalf("POST /v1/sessions/default/whatif: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /v1/sessions/default/whatif: status %d", resp.StatusCode)
		}
		var wr struct {
			Scenarios int `json:"scenarios"`
			Executed  int `json:"executed"`
			CacheHits int `json:"cache_hits"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&wr); err != nil {
			t.Fatalf("decoding what-if response: %v", err)
		}
		if wr.Scenarios != 2 {
			t.Fatalf("what-if answered %d scenarios, want 2", wr.Scenarios)
		}
		return wr.Executed, wr.CacheHits
	}
	if executed, hits := whatif(); executed != 2 || hits != 0 {
		t.Fatalf("cold what-if: executed=%d hits=%d, want 2/0", executed, hits)
	}
	if executed, hits := whatif(); executed != 0 || hits != 2 {
		t.Fatalf("warm what-if: executed=%d hits=%d, want 0/2", executed, hits)
	}

	if !strings.Contains(errb.String(), "ntc-serve: listening on 127.0.0.1:") {
		t.Fatalf("missing listen banner in stderr:\n%s", errb.String())
	}
	if !strings.Contains(errb.String(), "manual ticks") {
		t.Fatalf("missing manual-tick banner in stderr:\n%s", errb.String())
	}
}

// TestServeTicker checks the wall-clock mode: with -tick the replay
// advances without any /v1/sessions/default/step traffic.
func TestServeTicker(t *testing.T) {
	var errb syncBuffer
	s, ln, tick, err := setup(smallArgs("-tick", "5ms"), &errb)
	if err != nil {
		t.Fatalf("setup: %v", err)
	}
	defer ln.Close()
	go serveHTTP(s, ln, tick, &errb) //nolint:errcheck // closing ln ends it

	deadline := time.Now().Add(5 * time.Second)
	for s.Snapshot().Slot == 0 {
		if time.Now().After(deadline) {
			t.Fatal("ticker never advanced the replay")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
