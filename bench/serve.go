package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/serve"
	"repro/internal/sweep"
	"repro/internal/sweep/cache"
)

// serve-mix's traffic is a synthetic stress mix: lane A scrapes
// /metrics and steps sessions a and b, lane B sends what-ifs, each lane
// on its own connection and on a fixed schedule (an open loop:
// independent users do not wait for the daemon). No deployment was
// observed to choose the rates. The only cadence the repository
// documents is ntc-serve's "-tick 2s" example, one slot every 2 s;
// steps here come eight times as often so that a run covers much of a
// replay, and scrapes and what-ifs come often enough that a cold
// what-if, which takes a core for 60-300 ms, overlaps several scrapes
// and keeps lane B's connection mostly busy. The offsets keep the
// streams' due times apart.
const (
	scrapePeriod = 40 * time.Millisecond
	stepPeriod   = 250 * time.Millisecond // per session
	whatifPeriod = 250 * time.Millisecond

	stepOffsetA  = 20 * time.Millisecond
	stepOffsetB  = 145 * time.Millisecond
	whatifOffset = 60 * time.Millisecond

	// serveSetups is how many times an untraced run sets the daemon up
	// to take setup_s as a median.
	serveSetups = 5

	// postRefs is how many reference loads an untraced run times after
	// the lanes.
	postRefs = 3
)

// sessions are serve-mix's stepped sessions, created as deltas against
// the base scenario: a replays the base itself, b swaps the policy.
var sessions = []struct{ id, body string }{
	{"a", `{"id":"a"}`},
	{"b", `{"id":"b","policies":["COAT"]}`},
}

// serveOut is what one serve-mix run observed.
type serveOut struct {
	setups   []float64            // s, serve.New through the first 200 from /metrics, scaled to reference speed
	refs     []float64            // ms, the reference loads before each set-up and before the lanes
	creates  []float64            // ms, session creations before the lanes
	latency  map[string][]float64 // ms from due time, per request kind
	late     map[string][]float64 // ms behind schedule, per lane
	use      usage                // CPU and heap allocation during the lanes
	executed int                  // what-if scenarios the daemon executed
	forkSlot []float64            // completed slots of session a at each fork
	page     []float64            // bytes of each scraped page
	counters map[string]float64   // /metrics counters summed over sessions at the end
}

// measureServe is serve-mix with tracing off.
func measureServe(rc *runCtx, w *workload) {
	out, err := serveMix(rc, nil, serveSetups, rc.seconds)
	if err != nil {
		rc.op(false, "serve-mix: %v", err)
		return
	}
	// The lanes are too long to pair each request with a reference load
	// of its own; they are scaled by the median of the run's reference
	// loads: one before each set-up, one right before the lanes and
	// postRefs once the lanes' answers are checked, so that they bracket
	// the lanes. None is taken right after the lanes: there the load
	// reads about 1.8 times its usual time on the reference machine for
	// half a second, collector run or not, which is the lanes' aftermath
	// rather than the host.
	for range postRefs {
		out.refs = append(out.refs, ms(refLoad()))
	}
	rc.samples["setup_s"], rc.samples["ref_ms"] = out.setups, out.refs
	for k, xs := range out.latency {
		rc.samples[k+"_ms"] = xs
	}
	cold := median(out.latency[kindCold])
	rc.gate("setup_s", median(out.setups))
	rc.gate("answer_ms_p50", cold*ms(refNominal)/median(out.refs))
	rc.gate("heap_alloc_mb_per_scenario", float64(out.use.alloc)/mb/float64(out.executed))
	rc.gate("max_rss_mb", maxRSSMB())
	rc.extra("ref_ms_p50", "ms", median(out.refs))
	rc.extra("cpu_ms_per_scenario", "ms", ms(out.use.cpu)/float64(out.executed))
	for _, k := range []string{"scrape", "step", kindCold, kindWarm} {
		reportLatency(rc, k+"_ms", out.latency[k])
	}
	reportServeLayers(rc, out)
}

// traceServe is serve-mix's traced run: for half of --seconds,
// composed passes over every policy at the base scenario split a cold
// what-if into layers; for the other half the lanes run with a
// client-side span per request.
func traceServe(rc *runCtx, w *workload) {
	traceBatch(rc, w, rc.seconds/2)
	tr := newTracer()
	out, err := serveMix(rc, tr, 1, rc.seconds/2)
	if err != nil {
		rc.op(false, "serve-mix: %v", err)
		return
	}
	rc.spans = append(rc.spans, tr.recorded())
	rc.table = selfTable(byName(rc.spans...))
	reportServeLayers(rc, out)
}

// reportLatency reports a latency distribution as its median and the
// highest percentile with enough samples beyond it.
func reportLatency(rc *runCtx, name string, xs []float64) {
	if len(xs) == 0 {
		return
	}
	rc.extra(name+"_p50", "ms", median(xs))
	if p, ok := tailPercentile(len(xs)); ok {
		rc.extra(name+"_"+percentileName(p), "ms", percentile(xs, p))
	}
	rc.extra(name+"_samples", "count", float64(len(xs)))
}

// reportServeLayers reports the serve and loadgen layers' numbers.
func reportServeLayers(rc *runCtx, out *serveOut) {
	rc.extra("serve.session_create_ms", "ms", median(out.creates))
	rc.extra("serve.fork_ms", "ms", median(out.latency[kindFork]))
	rc.extra("serve.fork_slot", "count", median(out.forkSlot))
	rc.extra("serve.metrics_bytes", "bytes", median(out.page))
	rc.extra("serve.whatif_executed", "count", out.counters["ntc_whatif_executed"])
	rc.extra("serve.whatif_cache_hits", "count", out.counters["ntc_whatif_cache_hits"])
	rc.extra("serve.whatif_forks", "count", out.counters["ntc_whatif_forks"])
	if h, m := out.counters["ntc_cache_hits"], out.counters["ntc_cache_misses"]; h+m > 0 {
		rc.extra("cache.hit_ratio", "ratio", h/(h+m))
	}
	for _, lane := range []string{"lane_a", "lane_b"} {
		xs := out.late[lane]
		if p, ok := tailPercentile(len(xs)); ok {
			rc.extra("loadgen."+lane+".late_ms_"+percentileName(p), "ms", percentile(xs, p))
		}
		rc.extra("loadgen."+lane+".late_ms_max", "ms", percentile(xs, 100))
	}
}

// serveMix sets the daemon up setups times (the last one serves),
// creates sessions a and b, runs both lanes for length, and then
// checks every answer. The checks run after the lanes so that parsing
// responses is not part of any latency. With a tracer, every lane
// request is recorded as a client-side span.
func serveMix(rc *runCtx, tr *tracer, setups int, length time.Duration) (*serveOut, error) {
	base := serveBaseGrid()
	dir, err := os.MkdirTemp(rc.dir, "store-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	store, err := cache.Open(dir, cache.ModeRW)
	if err != nil {
		return nil, err
	}

	out := &serveOut{latency: map[string][]float64{}, late: map[string][]float64{}}
	var d *daemon
	for i := 0; i < setups; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		ref := refLoad()
		start := time.Now()
		if d, err = startDaemon(base, store); err != nil {
			return nil, err
		}
		out.setups = append(out.setups, scaledMs(time.Since(start), ref)/1000)
		out.refs = append(out.refs, ms(ref))
	}
	defer d.stop()

	m := &mix{a: newClient(d.url), b: newClient(d.url)}
	defer m.a.close()
	defer m.b.close()
	slots := 0
	for _, s := range sessions {
		start := time.Now()
		n, err := createSession(m.a, s.body)
		if err != nil {
			return nil, err
		}
		out.creates = append(out.creates, ms(time.Since(start)))
		slots = n // both sessions replay the base scenario's window
	}

	whatifDue := schedule(whatifOffset, whatifPeriod, length)
	seq, err := whatifSequence(rc.seed, len(whatifDue))
	if err != nil {
		return nil, err
	}
	lanes := []struct {
		name  string
		calls []call
		res   []outcome
	}{
		{name: "lane_a", calls: m.laneACalls(length, slots)},
		{name: "lane_b", calls: m.laneBCalls(whatifDue, seq)},
	}
	if tr != nil {
		for _, l := range lanes {
			traceCalls(tr, l.calls)
		}
	}

	out.refs = append(out.refs, ms(refLoad()))
	u0 := readUsage()
	start := time.Now()
	var wg sync.WaitGroup
	for i := range lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lanes[i].res = runLane(wallClock{}, start, lanes[i].calls)
		}()
	}
	wg.Wait()
	out.use = readUsage().sub(u0)

	for _, l := range lanes {
		for i, o := range l.res {
			rc.op(o.err == nil, "serve-mix: %s request %d (%s): %v", l.name, i, o.kind, o.err)
			out.late[l.name] = append(out.late[l.name], ms(o.late))
			if o.err == nil {
				out.latency[o.kind] = append(out.latency[o.kind], ms(o.latency))
			}
		}
	}
	if err := m.verify(rc, out, base); err != nil {
		return nil, err
	}
	return out, nil
}

// mix is serve-mix's two lanes: the calls they make and what came
// back. Lane A's fields are only touched on lane A's goroutine and lane
// B's on lane B's, until both lanes are done.
type mix struct {
	a, b *client

	pages   [][]byte // lane A: every scraped page
	answers []answer // lane B: every what-if and fork answer, in order
}

// answer is one what-if lane request and its response.
type answer struct {
	q    whatif
	body []byte
}

// laneACalls schedules the scrapes and both sessions' steps by due
// time. A session is stepped at most slots times, to the end of its
// replay, which a run longer than 42 s reaches.
func (m *mix) laneACalls(length time.Duration, slots int) []call {
	var calls []call
	for _, due := range schedule(0, scrapePeriod, length) {
		calls = append(calls, call{due: due, kind: "scrape", do: m.scrape})
	}
	for i, off := range []time.Duration{stepOffsetA, stepOffsetB} {
		id := sessions[i].id
		due := schedule(off, stepPeriod, length)
		for _, d := range due[:min(len(due), slots)] {
			calls = append(calls, call{due: d, kind: "step", do: func() error { return m.step(id) }})
		}
	}
	sort.SliceStable(calls, func(i, j int) bool { return calls[i].due < calls[j].due })
	return calls
}

// laneBCalls schedules the what-if sequence.
func (m *mix) laneBCalls(due []time.Duration, seq []whatif) []call {
	calls := make([]call, len(seq))
	for i, q := range seq {
		calls[i] = call{due: due[i], kind: q.kind, do: func() error { return m.whatif(q) }}
	}
	return calls
}

func (m *mix) scrape() error {
	body, err := m.a.get200("/metrics")
	if err != nil {
		return err
	}
	m.pages = append(m.pages, body)
	return nil
}

// step advances a session by one slot.
func (m *mix) step(id string) error {
	_, err := m.a.post200("/v1/sessions/"+id+"/step", nil)
	return err
}

// whatif sends one what-if delta to the default session, or a fork to
// session a.
func (m *mix) whatif(q whatif) error {
	var (
		body []byte
		err  error
	)
	if q.kind == kindFork {
		body, err = m.b.post200("/v1/sessions/a/whatif", []byte(`{"fork":true}`))
	} else {
		body, err = m.b.post200("/v1/sessions/default/whatif", deltaBody(q.delta))
	}
	if err != nil {
		return err
	}
	m.answers = append(m.answers, answer{q: q, body: body})
	return nil
}

// verify checks what the lanes got back: every scraped page's what-if
// counters reconcile per session (scenarios == executed + cache_hits);
// a cold delta executed one scenario; a warm one was answered from the
// cache with the cold answer's bytes; every fork's full-horizon total
// equals the batch row of session a's scenario; and the last page's
// counters account for every answer.
func (m *mix) verify(rc *runCtx, out *serveOut, base sweep.Grid) error {
	for i, body := range m.pages {
		out.page = append(out.page, float64(len(body)))
		p, err := parseMetrics(body)
		if err != nil {
			rc.op(false, "serve-mix: page %d: %v", i, err)
			continue
		}
		for sess, v := range p.series["ntc_whatif_scenarios"] {
			ex, hits := p.series["ntc_whatif_executed"][sess], p.series["ntc_whatif_cache_hits"][sess]
			rc.op(v == ex+hits, "serve-mix: page %d, session %s: ntc_whatif_scenarios %v != executed %v + cache_hits %v",
				i, sess, v, ex, hits)
		}
	}

	ref, err := sweep.Run(base, sweep.Options{Workers: workers})
	if err != nil {
		return err
	}
	if len(ref.Runs) != 1 || ref.Runs[0].Err != "" {
		return fmt.Errorf("batch reference run of the base scenario failed: %v", ref.Failed())
	}
	want := ref.Runs[0].TotalEnergyMJ

	cold := map[int]json.RawMessage{}
	var warm, forks int
	for i, a := range m.answers {
		if a.q.kind == kindFork {
			var f struct {
				Slot          int     `json:"slot"`
				TotalEnergyMJ float64 `json:"total_energy_mj"`
			}
			err := json.Unmarshal(a.body, &f)
			rc.op(err == nil && f.TotalEnergyMJ == want,
				"serve-mix: fork %d totals %v MJ (%v), the batch row %v MJ", i, f.TotalEnergyMJ, err, want)
			out.forkSlot = append(out.forkSlot, float64(f.Slot))
			forks++
			continue
		}
		var r struct {
			Scenarios int             `json:"scenarios"`
			Executed  int             `json:"executed"`
			CacheHits int             `json:"cache_hits"`
			Rows      json.RawMessage `json:"rows"`
		}
		var rows []struct {
			Err string `json:"error"`
		}
		err := json.Unmarshal(a.body, &r)
		if err == nil {
			err = json.Unmarshal(r.Rows, &rows)
		}
		ok := err == nil && r.Scenarios == 1 && len(rows) == 1 && rows[0].Err == ""
		if a.q.kind == kindCold {
			ok = ok && r.Executed == 1 && r.CacheHits == 0
			cold[a.q.delta] = r.Rows
			out.executed++
		} else {
			ok = ok && r.Executed == 0 && r.CacheHits == 1 && bytes.Equal(r.Rows, cold[a.q.delta])
			warm++
		}
		rc.op(ok, "serve-mix: %s %d for %s: %.200s (%v)", a.q.kind, i, deltaBody(a.q.delta), a.body, err)
	}

	p, err := scrape(m.a)
	if err != nil {
		return err
	}
	out.counters = p.sums()
	c := out.counters
	rc.op(c["ntc_whatif_executed"] == float64(out.executed) && c["ntc_whatif_cache_hits"] == float64(warm),
		"serve-mix: /metrics counts %v executed and %v cache hits, the lanes %d and %d",
		c["ntc_whatif_executed"], c["ntc_whatif_cache_hits"], out.executed, warm)
	rc.op(c["ntc_whatif_forks"] == float64(forks), "serve-mix: /metrics counts %v forks, the lanes %d",
		c["ntc_whatif_forks"], forks)
	return nil
}

// traceCalls wraps every call of a lane in a client-side span named
// after the request kind; the span's request id is the call's index.
func traceCalls(tr *tracer, calls []call) {
	for i := range calls {
		do, name := calls[i].do, "serve."+calls[i].kind
		calls[i].do = func() error {
			id := tr.begin(name, 0, i)
			defer tr.end(id)
			return do()
		}
	}
}

// daemon is an in-process ntc-serve on a loopback listener.
type daemon struct {
	hs     *http.Server
	url    string
	served chan error
}

// startDaemon builds the service and serves it, and returns once the
// first /metrics request has answered 200.
func startDaemon(g sweep.Grid, store *cache.Store) (*daemon, error) {
	s, err := serve.New(serve.Options{Grid: g, Cache: store})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{hs: &http.Server{Handler: s.Handler()}, url: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { d.served <- d.hs.Serve(ln) }()
	c := newClient(d.url)
	defer c.close()
	if _, err := scrape(c); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// stop shuts the server down and waits for Serve to return.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// client is one lane's connection to the daemon.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	return &client{
		hc: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
			Timeout:   60 * time.Second,
		},
		base: base,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the status and the whole body.
func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// expect sends a request that must answer with status want and
// returns the body.
func (c *client) expect(method, path string, body []byte, want int) ([]byte, error) {
	code, resp, err := c.do(method, path, body)
	if err != nil {
		return nil, err
	}
	if code != want {
		return nil, fmt.Errorf("%s %s: status %d, want %d: %s", method, path, code, want, resp)
	}
	return resp, nil
}

func (c *client) get200(path string) ([]byte, error) {
	return c.expect(http.MethodGet, path, nil, http.StatusOK)
}

func (c *client) post200(path string, body []byte) ([]byte, error) {
	return c.expect(http.MethodPost, path, body, http.StatusOK)
}

// createSession creates a session and returns the slots its replay
// has.
func createSession(c *client, body string) (int, error) {
	resp, err := c.expect(http.MethodPost, "/v1/sessions", []byte(body), http.StatusCreated)
	if err != nil {
		return 0, err
	}
	var st struct {
		Slots int `json:"slots"`
	}
	if err := json.Unmarshal(resp, &st); err != nil {
		return 0, fmt.Errorf("creating a session: %w", err)
	}
	return st.Slots, nil
}

// metricsPage is a parsed /metrics page: series value by family and
// session label.
type metricsPage struct {
	series map[string]map[string]float64
}

// scrape fetches and parses /metrics.
func scrape(c *client) (*metricsPage, error) {
	body, err := c.get200("/metrics")
	if err != nil {
		return nil, err
	}
	return parseMetrics(body)
}

// parseMetrics reads the what-if and cache counter families of a page;
// other families are skipped.
func parseMetrics(body []byte) (*metricsPage, error) {
	p := &metricsPage{series: map[string]map[string]float64{}}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "ntc_whatif_") && !strings.HasPrefix(line, "ntc_cache_") {
			continue
		}
		name, rest, ok := strings.Cut(line, `{session="`)
		if !ok {
			return nil, fmt.Errorf("/metrics: unlabelled series %q", line)
		}
		sess, rest, ok := strings.Cut(rest, `"`)
		if !ok {
			return nil, fmt.Errorf("/metrics: malformed series %q", line)
		}
		_, val, ok := strings.Cut(rest, " ")
		if !ok {
			return nil, fmt.Errorf("/metrics: series %q has no value", line)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics: series %q: %w", line, err)
		}
		if p.series[name] == nil {
			p.series[name] = map[string]float64{}
		}
		p.series[name][sess] = v
	}
	return p, sc.Err()
}

// sums adds each family over its sessions.
func (p *metricsPage) sums() map[string]float64 {
	out := map[string]float64{}
	for name, bySess := range p.series {
		for _, v := range bySess {
			out[name] += v
		}
	}
	return out
}
