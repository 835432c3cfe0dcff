package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// maxSpans bounds the spans a traced run keeps for writing out. Past
// it, spans still count towards the per-name aggregates but are not
// stored, so a fast workload cannot grow the trace without bound.
const maxSpans = 200000

// span is one timed call the benchmark made into a layer. Spans of one
// request share Req; Parent is filled in after the run, when the spans
// are joined into trees.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Attr   string `json:"attr,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// spanTotal aggregates every span of one name, stored or not.
type spanTotal struct {
	Count   int64   `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// tracer keeps a run's spans in memory. A nil *tracer records nothing,
// so untraced runs pass nil and pay one branch per call site.
type tracer struct {
	t0 time.Time

	mu      sync.Mutex
	spans   []span
	dropped int64
	totals  map[string]*spanTotal
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), totals: make(map[string]*spanTotal)}
}

// record stores a span covering [start, end). Spans recorded without a
// parent are roots unless joined later by request id.
func (t *tracer) record(name, req string, start, end time.Time) {
	t.recordAttr(name, req, "", start, end)
}

// recordAttr is record with a free-form attribute (the serving backend
// of an HTTP handler span).
func (t *tracer) recordAttr(name, req, attr string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{Name: name, Req: req, Attr: attr, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()}
	t.mu.Lock()
	tot := t.totals[name]
	if tot == nil {
		tot = &spanTotal{}
		t.totals[name] = tot
	}
	tot.Count++
	tot.TotalMS += float64(s.dur()) / 1e6
	if len(t.spans) < maxSpans {
		s.ID = len(t.spans) + 1
		t.spans = append(t.spans, s)
	} else {
		// An unstored span joins no tree, so all of it is self time.
		t.dropped++
		tot.SelfMS += float64(s.dur()) / 1e6
	}
	t.mu.Unlock()
}

// link joins spans into trees: a stored span whose name has a parent
// name in parents becomes the child of the latest-starting span of
// that name with the same request id that covers its start. Called
// after the run, once all spans are in.
func (t *tracer) link(parents map[string]string) {
	if t == nil {
		return
	}
	byReq := make(map[string][]int)
	for i, s := range t.spans {
		if s.Req != "" {
			byReq[s.Req] = append(byReq[s.Req], i)
		}
	}
	for _, idx := range byReq {
		for _, c := range idx {
			want, ok := parents[t.spans[c].Name]
			if !ok {
				continue
			}
			best := -1
			for _, p := range idx {
				ps := t.spans[p]
				if ps.Name != want || ps.Start > t.spans[c].Start || ps.End < t.spans[c].Start {
					continue
				}
				if best < 0 || ps.Start > t.spans[best].Start {
					best = p
				}
			}
			if best >= 0 {
				t.spans[c].Parent = t.spans[best].ID
			}
		}
	}
}

// computeSelf fills every stored span's self time: its duration minus
// the union of the intervals its children cover within it, and adds
// the self times to the per-name aggregates.
func (t *tracer) computeSelf() {
	if t == nil {
		return
	}
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].Start < t.spans[kids[b]].Start })
		covered, cur := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(t.spans[k].Start, cur), min(t.spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		s.Self = s.dur() - covered
		if tot := t.totals[s.Name]; tot != nil {
			tot.SelfMS += float64(s.Self) / 1e6
		}
	}
}

// traceFile is the document a traced run writes at exit.
type traceFile struct {
	Workload string                `json:"workload"`
	Seed     uint64                `json:"seed"`
	Spans    []span                `json:"spans"`
	Dropped  int64                 `json:"dropped_spans"`
	Totals   map[string]*spanTotal `json:"totals"`
	// Overhead is each end-to-end metric of the traced phase minus the
	// same metric of the untraced phase that precedes it in the run.
	Overhead  map[string]float64 `json:"tracing_overhead"`
	Untraced  map[string]float64 `json:"untraced"`
	Traced    map[string]float64 `json:"traced"`
	PerLayer  map[string]float64 `json:"per_layer"`
	WrittenAt string             `json:"written_at"`
}

func (t *tracer) write(path string, doc traceFile) error {
	doc.Spans, doc.Dropped, doc.Totals = t.spans, t.dropped, t.totals
	doc.WrittenAt = time.Now().UTC().Format(time.RFC3339)
	raw, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
