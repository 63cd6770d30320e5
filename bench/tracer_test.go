package main

import (
	"slices"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a: counted once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // reaches past root: clipped
		{ID: 5, Parent: 3, Name: "b1", Start: 25, End: 35}, // grandchild of root
		{ID: 6, Name: "other", Start: 0, End: 7},           // no children
	}
	// root: 100 - |[10,50) ∪ [90,100)| = 100 - 50; b: 30 - 10.
	want := []int64{50, 20, 20, 30, 10, 7}
	if got := selfTimes(spans); !slices.Equal(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

// Span ids are unique within one tracer only; aggregating several
// tracers must not give one tracer's span another's children.
func TestByNameKeepsTracersApart(t *testing.T) {
	first := []span{
		{ID: 1, Name: "pass", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "step", Start: 0, End: 4},
	}
	second := []span{{ID: 1, Name: "pass", Start: 0, End: 10}}
	st := byName(first, second)
	if p := st["pass"]; p.count != 2 || p.self != 6+10 || p.total != 20 {
		t.Errorf("pass: count %d, self %d, total %d; want 2, 16, 20", p.count, p.self, p.total)
	}
	if s := st["step"]; s.count != 1 || s.self != 4 {
		t.Errorf("step: count %d, self %d; want 1, 4", s.count, s.self)
	}
}

func TestTracerNestsSpans(t *testing.T) {
	tr := newTracer()
	root := tr.begin("root", 0, -1)
	child := tr.begin("child", root, 7)
	tr.end(child)
	tr.end(root)
	got := tr.recorded()
	if len(got) != 2 || got[1].Parent != got[0].ID || got[1].Req != 7 {
		t.Fatalf("recorded %+v", got)
	}
	for _, s := range got {
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	if got[1].Start < got[0].Start || got[1].End > got[0].End {
		t.Errorf("child %+v is not inside root %+v", got[1], got[0])
	}
}
