package core

import (
	"testing"

	"uwm/internal/trace"
)

func TestSpanNestingAndParents(t *testing.T) {
	rec := trace.NewRecorder(0)
	m := MustNewMachine(Options{Seed: 7, Sink: rec})

	outer := m.BeginSpan("circuit:test")
	inner := m.BeginSpan("gate:inner")
	if m.OpenSpans() != 2 {
		t.Fatalf("OpenSpans = %d, want 2", m.OpenSpans())
	}
	m.EndSpan(inner)
	m.EndSpan(outer)
	if m.OpenSpans() != 0 {
		t.Fatalf("OpenSpans = %d after closing, want 0", m.OpenSpans())
	}

	begins := ofKind(rec, trace.KindSpanBegin)
	ends := ofKind(rec, trace.KindSpanEnd)
	if len(begins) != 2 || len(ends) != 2 {
		t.Fatalf("begins=%d ends=%d, want 2/2", len(begins), len(ends))
	}
	if begins[0].Text != "circuit:test" || begins[0].Addr != 0 {
		t.Errorf("outer begin = %+v, want root parent", begins[0])
	}
	if begins[1].Text != "gate:inner" || begins[1].Addr != begins[0].Value {
		t.Errorf("inner begin = %+v, want parent %d", begins[1], begins[0].Value)
	}
	// LIFO close order: inner's end first.
	if ends[0].Value != begins[1].Value || ends[1].Value != begins[0].Value {
		t.Errorf("end order = %d,%d; want %d,%d",
			ends[0].Value, ends[1].Value, begins[1].Value, begins[0].Value)
	}
}

func TestEndSpanClosesAbandonedChildren(t *testing.T) {
	rec := trace.NewRecorder(0)
	m := MustNewMachine(Options{Seed: 7, Sink: rec})

	outer := m.BeginSpan("a")
	m.BeginSpan("b") // never closed explicitly (error-path shape)
	m.EndSpan(outer)
	if m.OpenSpans() != 0 {
		t.Fatalf("OpenSpans = %d, want 0", m.OpenSpans())
	}
	if n := len(ofKind(rec, trace.KindSpanEnd)); n != 2 {
		t.Fatalf("span ends = %d, want 2 (child closed with parent)", n)
	}
	// A double close must not disturb later spans.
	m.EndSpan(outer)
	later := m.BeginSpan("c")
	if m.OpenSpans() != 1 {
		t.Fatalf("OpenSpans = %d, want 1", m.OpenSpans())
	}
	m.EndSpan(later)
}

func TestGateActivationEmitsBalancedSpans(t *testing.T) {
	rec := trace.NewRecorder(0)
	m := MustNewMachine(Options{Seed: 3, TrainIterations: 2, Sink: rec})

	bp, err := NewBPAnd(m)
	if err != nil {
		t.Fatal(err)
	}
	tsx, err := NewTSXAnd(m)
	if err != nil {
		t.Fatal(err)
	}
	rec.Reset()
	if _, err := bp.Run(1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := tsx.Run(1, 1); err != nil {
		t.Fatal(err)
	}
	begins := ofKind(rec, trace.KindSpanBegin)
	ends := ofKind(rec, trace.KindSpanEnd)
	if len(begins) == 0 || len(begins) != len(ends) {
		t.Fatalf("unbalanced spans: %d begins, %d ends", len(begins), len(ends))
	}
	if m.OpenSpans() != 0 {
		t.Fatalf("OpenSpans = %d after activations, want 0", m.OpenSpans())
	}
	want := map[string]bool{
		"gate:AND": false, SpanTrain: false, SpanICWrite: false,
		"gate:TSX_AND": false, SpanWriteInput: false, SpanPrep: false,
		SpanFire: false, SpanRead: false,
	}
	for _, e := range begins {
		if _, ok := want[e.Text]; ok {
			want[e.Text] = true
		}
		if e.Kind.Architectural() {
			t.Fatalf("span event on architectural plane: %+v", e)
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("no span %q emitted", name)
		}
	}
}

// TestSpanDisabledZeroAlloc is the PR's zero-overhead guard: with no
// sink attached, opening and closing spans must allocate nothing.
func TestSpanDisabledZeroAlloc(t *testing.T) {
	m := MustNewMachine(Options{Seed: 7})
	if allocs := testing.AllocsPerRun(1000, func() {
		id := m.BeginSpan("gate:AND")
		m.EndSpan(id)
	}); allocs != 0 {
		t.Errorf("disabled span path allocated %v/op, want 0", allocs)
	}
}

// BenchmarkSpanDisabled measures the per-activation cost of the span
// calls when tracing is off — the "no measurable cost" guarantee. The
// full uninstrumented/instrumented gate comparison lives in
// BenchmarkBPGateActivation (bench_test.go at the repo root).
func BenchmarkSpanDisabled(b *testing.B) {
	m := MustNewMachine(Options{Seed: 7})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		id := m.BeginSpan("gate:AND")
		m.EndSpan(id)
	}
}

// BenchmarkSpanEnabled is the enabled-path counterpart, emitting into a
// disabled-at-the-bottom recorder toggled on (ring of 1k events).
func BenchmarkSpanEnabled(b *testing.B) {
	rec := trace.NewRecorder(1024)
	m := MustNewMachine(Options{Seed: 7, Sink: rec})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		id := m.BeginSpan("gate:AND")
		m.EndSpan(id)
	}
}
