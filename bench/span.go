package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
)

// span is one timed call the harness made into a layer's public API: the
// layer function's name, start and end on the harness clock, the span that
// caused it (-1 for an op's root span) and the op it belongs to.
type span struct {
	name       string
	start, end int64
	parent, op int32
}

// recorder keeps one goroutine's spans in a preallocated buffer; nothing is
// written until the run is over. A nil recorder records nothing, so the same
// client code runs traced and untraced.
type recorder struct {
	spans []span
}

func newRecorder(capacity int) *recorder {
	return &recorder{spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its id for end and for children's parent.
func (r *recorder) begin(name string, parent, op int32, now int64) int32 {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{name: name, start: now, parent: parent, op: op})
	return int32(len(r.spans) - 1)
}

func (r *recorder) end(id int32, now int64) {
	if r == nil {
		return
	}
	r.spans[id].end = now
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its direct children cover (overlapping children count once).
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start
		kids := children[int32(i)]
		if len(kids) == 0 {
			continue
		}
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		covered, reach := int64(0), s.start
		for _, k := range kids {
			lo, hi := spans[k].start, spans[k].end
			if lo < reach {
				lo = reach
			}
			if hi > s.end {
				hi = s.end
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] -= covered
	}
	return self
}

// spanDurations collects, per span name, every duration in nanoseconds.
func spanDurations(spans []span) map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range spans {
		out[s.name] = append(out[s.name], float64(s.end-s.start))
	}
	return out
}

// spanRecord is the span file's line format.
type spanRecord struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	SelfNs  int64  `json:"self_ns"`
	ID      int    `json:"id"`
	Parent  int32  `json:"parent"`
	Op      int32  `json:"op"`
	Section string `json:"section"`
}

// spanFile accumulates the traced run's span sets and writes them out as
// JSON lines when the run ends.
type spanFile struct {
	sections []string
	sets     [][]span
}

func (f *spanFile) add(section string, spans []span) {
	if f == nil || len(spans) == 0 {
		return
	}
	f.sections = append(f.sections, section)
	f.sets = append(f.sets, spans)
}

func (f *spanFile) write(path string) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(out)
	enc := json.NewEncoder(w)
	for si, spans := range f.sets {
		self := selfTimes(spans)
		for i, s := range spans {
			if err := enc.Encode(spanRecord{Name: s.name, StartNs: s.start, EndNs: s.end, SelfNs: self[i],
				ID: i, Parent: s.parent, Op: s.op, Section: f.sections[si]}); err != nil {
				out.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
