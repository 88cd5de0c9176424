package main

import (
	"sort"

	"repro/internal/obs"
	"repro/pkg/ones"
)

// maxSpans bounds the benchmark's own tracer per op. It is far above
// what any op records (a 300-job baseline cell makes a few thousand
// decisions), and every op checks that no span was dropped.
const maxSpans = 1 << 22

// span is one node of a recorded span tree, in seconds.
type span struct {
	name       string
	start, dur float64
	attrs      map[string]string
	children   []*span
}

func fromObs(n *obs.SpanNode) *span {
	s := &span{name: n.Name, start: n.StartMS / 1e3, dur: n.DurationMS / 1e3, attrs: n.Attrs}
	for _, c := range n.Children {
		s.children = append(s.children, fromObs(c))
	}
	return s
}

func fromTraceNode(n *ones.TraceNode) *span {
	s := &span{name: n.Name, start: n.StartMS / 1e3, dur: n.DurationMS / 1e3, attrs: n.Attrs}
	for _, c := range n.Children {
		s.children = append(s.children, fromTraceNode(c))
	}
	return s
}

// self is the span's duration minus the time its children cover.
func (s *span) self() float64 {
	type iv struct{ lo, hi float64 }
	ivs := make([]iv, 0, len(s.children))
	for _, c := range s.children {
		ivs = append(ivs, iv{c.start, c.start + c.dur})
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	covered, end := 0.0, s.start
	for _, v := range ivs {
		lo, hi := max(v.lo, end), min(v.hi, s.start+s.dur)
		if hi > lo {
			covered += hi - lo
			end = hi
		}
	}
	return s.dur - covered
}

// child returns the first direct child with the given name, or nil.
func (s *span) child(name string) *span {
	for _, c := range s.children {
		if c.name == name {
			return c
		}
	}
	return nil
}

// each calls f for every direct child with the given name.
func (s *span) each(name string, f func(*span)) {
	for _, c := range s.children {
		if c.name == name {
			f(c)
		}
	}
}
