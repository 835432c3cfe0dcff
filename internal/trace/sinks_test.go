package trace

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestEnabled(t *testing.T) {
	if Enabled(nil) {
		t.Error("nil sink reported enabled")
	}
	r := NewRecorder(0)
	if !Enabled(r) {
		t.Error("live recorder reported disabled")
	}
	if Enabled((*Recorder)(nil)) {
		t.Error("nil recorder reported enabled")
	}
	if !Enabled(NewJSONLSink(&bytes.Buffer{})) {
		t.Error("file sink reported disabled")
	}
}

func TestTee(t *testing.T) {
	if Tee() != nil || Tee(nil, nil) != nil {
		t.Error("empty Tee should collapse to nil")
	}
	r := NewRecorder(0)
	if Tee(nil, r) != Sink(r) {
		t.Error("single-sink Tee should return the sink itself")
	}
	r2 := NewRecorder(0)
	tee := Tee(r, r2)
	tee.Emit(Event{Kind: KindCommit})
	if len(r.Events()) != 1 || len(r2.Events()) != 1 {
		t.Error("Tee did not fan out")
	}
	var off *Recorder
	if !Enabled(Tee(off, r2)) {
		t.Error("Tee with one live sink reported disabled")
	}
	if Enabled(Tee(off, off)) {
		t.Error("Tee with no live sink reported enabled")
	}
}

func TestJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	s.Emit(Event{Kind: KindCommit, Cycle: 10, PC: 0x40, Text: "nop"})
	s.Emit(Event{Kind: KindCacheFill, Cycle: 12, Addr: 0x108000, Value: 224})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 || s.Count() != 2 {
		t.Fatalf("got %d lines, count %d", len(lines), s.Count())
	}
	var first map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("line 0 is not JSON: %v", err)
	}
	if first["kind"] != "commit" || first["plane"] != "arch" || first["cycle"] != float64(10) {
		t.Errorf("line 0 = %v", first)
	}
	var second map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil {
		t.Fatal(err)
	}
	if second["plane"] != "uarch" || second["value"] != float64(224) {
		t.Errorf("line 1 = %v", second)
	}
}

// chromeEvents decodes a trace_event document and returns its events.
func chromeEvents(t *testing.T, data []byte) []map[string]any {
	t.Helper()
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, data)
	}
	return doc.TraceEvents
}

func TestChromeSinkSpans(t *testing.T) {
	var buf bytes.Buffer
	s := NewChromeSink(&buf)
	// A TSX region containing a spec window, then a cache fill.
	s.Emit(Event{Kind: KindTxBegin, Cycle: 100, PC: 0x400})
	s.Emit(Event{Kind: KindSpecStart, Cycle: 110, Value: 160})
	s.Emit(Event{Kind: KindSpecExec, Cycle: 110, PC: 0x404, Text: "load r1, in_a"})
	s.Emit(Event{Kind: KindCacheFill, Cycle: 115, Addr: 0x108000, Value: 224})
	s.Emit(Event{Kind: KindSpecEnd, Cycle: 110, Value: 3})
	s.Emit(Event{Kind: KindTxAbort, Cycle: 300})
	s.Emit(Event{Kind: KindCommit, Cycle: 310, PC: 0x440, Text: "halt"})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	evs := chromeEvents(t, buf.Bytes())

	find := func(name string) map[string]any {
		for _, e := range evs {
			if e["name"] == name {
				return e
			}
		}
		return nil
	}
	spec := find("spec-window")
	if spec == nil {
		t.Fatal("no spec-window slice")
	}
	if spec["ph"] != "X" || spec["dur"] != float64(160) || spec["ts"] != float64(110) {
		t.Errorf("spec-window = %v", spec)
	}
	tsx := find("tsx-region")
	if tsx == nil {
		t.Fatal("no tsx-region slice")
	}
	if tsx["ph"] != "X" || tsx["ts"] != float64(100) || tsx["dur"] != float64(200) {
		t.Errorf("tsx-region = %v", tsx)
	}
	if args, _ := tsx["args"].(map[string]any); args["outcome"] != "abort" {
		t.Errorf("tsx args = %v", tsx["args"])
	}
	fill := find("cache-fill")
	if fill == nil || fill["ph"] != "i" || fill["cat"] != "uarch" {
		t.Errorf("cache-fill = %v", fill)
	}
	commit := find("commit")
	if commit == nil || commit["cat"] != "arch" {
		t.Errorf("commit = %v", commit)
	}
}

func TestChromeSinkSpanPairs(t *testing.T) {
	var buf bytes.Buffer
	s := NewChromeSink(&buf)
	// A gate frame containing a component frame, plus an end whose begin
	// was truncated away (ring-buffer recording) and carries its own name.
	s.Emit(Event{Kind: KindSpanBegin, Cycle: 100, Value: 1, Addr: 0, Text: "gate:TSX_AND"})
	s.Emit(Event{Kind: KindSpanBegin, Cycle: 110, Value: 2, Addr: 1, Text: "cpu:fire"})
	s.Emit(Event{Kind: KindSpanEnd, Cycle: 150, Value: 2, Text: "cpu:fire"})
	s.Emit(Event{Kind: KindSpanEnd, Cycle: 200, Value: 1, Text: "gate:TSX_AND"})
	s.Emit(Event{Kind: KindSpanEnd, Cycle: 210, Value: 99, Text: "gate:lost"})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	evs := chromeEvents(t, buf.Bytes())

	type be struct{ b, e bool }
	got := map[string]*be{}
	for _, ev := range evs {
		ph, _ := ev["ph"].(string)
		if ph != "B" && ph != "E" {
			continue
		}
		name, _ := ev["name"].(string)
		p := got[name]
		if p == nil {
			p = &be{}
			got[name] = p
		}
		if ph == "B" {
			p.b = true
			if name == "cpu:fire" {
				if args, _ := ev["args"].(map[string]any); args["parent"] != float64(1) {
					t.Errorf("cpu:fire begin args = %v, want parent=1", ev["args"])
				}
			}
		} else {
			p.e = true
		}
	}
	for _, name := range []string{"gate:TSX_AND", "cpu:fire"} {
		if p := got[name]; p == nil || !p.b || !p.e {
			t.Errorf("span %q missing B/E pair: %+v", name, p)
		}
	}
	// The orphaned end still renders, named from its own payload.
	if p := got["gate:lost"]; p == nil || !p.e {
		t.Error("orphaned span-end was dropped or anonymous")
	}
}

func TestChromeSinkCommittedTx(t *testing.T) {
	var buf bytes.Buffer
	s := NewChromeSink(&buf)
	s.Emit(Event{Kind: KindTxBegin, Cycle: 10})
	s.Emit(Event{Kind: KindTxEnd, Cycle: 40})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, e := range chromeEvents(t, buf.Bytes()) {
		if e["name"] == "tsx-region" {
			if args, _ := e["args"].(map[string]any); args["outcome"] != "commit" {
				t.Errorf("outcome = %v", args["outcome"])
			}
			return
		}
	}
	t.Fatal("no tsx-region for committed transaction")
}

func TestFileSinkSelection(t *testing.T) {
	dir := t.TempDir()

	jl := filepath.Join(dir, "run.jsonl")
	s, c, err := FileSink(jl)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.(*JSONLSink); !ok {
		t.Errorf(".jsonl selected %T", s)
	}
	s.Emit(Event{Kind: KindCommit})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(jl)
	if err != nil || len(data) == 0 {
		t.Fatalf("jsonl file empty: %v", err)
	}

	cj := filepath.Join(dir, "run.json")
	s, c, err = FileSink(cj)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.(*ChromeSink); !ok {
		t.Errorf(".json selected %T", s)
	}
	s.Emit(Event{Kind: KindCommit, Cycle: 1})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(cj)
	if err != nil {
		t.Fatal(err)
	}
	if evs := chromeEvents(t, data); len(evs) == 0 {
		t.Error("chrome trace has no events")
	}
}

// BenchmarkRecorderDisabled guards the disabled-path overhead of the
// disabled path: emitting through a nil recorder must cost ~zero and
// allocate nothing.
func BenchmarkRecorderDisabled(b *testing.B) {
	var r *Recorder
	e := Event{Kind: KindCacheFill, Cycle: 1, Addr: 0x40}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Record(e)
	}
}

func TestDisabledRecorderZeroAlloc(t *testing.T) {
	var r *Recorder
	e := Event{Kind: KindCacheFill, Cycle: 1, Addr: 0x40}
	if allocs := testing.AllocsPerRun(1000, func() { r.Record(e) }); allocs != 0 {
		t.Errorf("disabled recorder allocated %v/op, want 0", allocs)
	}
	var nilSink Sink
	if allocs := testing.AllocsPerRun(1000, func() {
		if Enabled(nilSink) {
			nilSink.Emit(e)
		}
	}); allocs != 0 {
		t.Errorf("nil sink path allocated %v/op, want 0", allocs)
	}
}
