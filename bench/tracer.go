package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary, recorded by the traced
// run around a call into the system's exported API.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"` // 0 for a root span
	Name   string `json:"name"`

	// Req identifies the request the span belongs to: the scenario's
	// expansion index in a composed pass, the call's index in a serve
	// lane, or -1 for work shared by a whole pass.
	Req int `json:"req"`

	Start int64 `json:"start_ns"` // since the tracer started
	End   int64 `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; they are written out when the run
// ends. It is safe for concurrent use.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id for end and for children.
func (t *tracer) begin(name string, parent, req int) int {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: now})
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// recorded returns a copy of the spans recorded so far.
func (t *tracer) recorded() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time, indexed like spans: its
// duration minus the part of that interval its child spans cover.
// Children that overlap each other (parallel work) are counted once,
// and a child reaching outside its parent is clipped to the parent.
func selfTimes(spans []span) []int64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s.Start, s.End, children[s.ID])
	}
	return self
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	ivs = append([][2]int64(nil), ivs...)
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo // everything before cur is already counted
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// spanStats aggregates the spans of one name.
type spanStats struct {
	count int
	self  int64     // summed self time, ns
	total int64     // summed duration, ns
	durs  []float64 // each span's duration, ms
}

// byName aggregates spans (with their self times) by span name. Each
// list is one tracer's spans; ids are only unique within a list.
func byName(lists ...[]span) map[string]*spanStats {
	out := map[string]*spanStats{}
	for _, spans := range lists {
		self := selfTimes(spans)
		for i, s := range spans {
			st := out[s.Name]
			if st == nil {
				st = &spanStats{}
				out[s.Name] = st
			}
			st.count++
			st.self += self[i]
			st.total += s.dur()
			st.durs = append(st.durs, ms(time.Duration(s.dur())))
		}
	}
	return out
}

// layerRow is one line of the traced run's self-time table.
type layerRow struct {
	Span    string  `json:"span"`
	Count   int     `json:"count"`
	SelfMs  float64 `json:"self_ms"`
	TotalMs float64 `json:"total_ms"`
}

// selfTable renders aggregated spans as table rows, largest self time
// first.
func selfTable(stats map[string]*spanStats) []layerRow {
	rows := make([]layerRow, 0, len(stats))
	for name, st := range stats {
		rows = append(rows, layerRow{Span: name, Count: st.count,
			SelfMs: ms(time.Duration(st.self)), TotalMs: ms(time.Duration(st.total))})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].SelfMs != rows[j].SelfMs {
			return rows[i].SelfMs > rows[j].SelfMs
		}
		return rows[i].Span < rows[j].Span
	})
	return rows
}
