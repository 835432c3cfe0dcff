package trace

import (
	"strings"
	"testing"
)

// kindTable pins down every declared kind's name and plane. Adding a
// kind without extending this table — or without updating String() and
// the plane boundary — fails TestKindsExhaustive.
var kindTable = []struct {
	kind Kind
	name string
	arch bool
}{
	{KindCommit, "commit", true},
	{KindRegWrite, "reg-write", true},
	{KindMemWrite, "mem-write", true},
	{KindTxBegin, "tx-begin", true},
	{KindTxEnd, "tx-end", true},
	{KindTxAbort, "tx-abort", true},
	{KindSpecStart, "spec-start", false},
	{KindSpecExec, "spec-exec", false},
	{KindSpecEnd, "spec-end", false},
	{KindCacheFill, "cache-fill", false},
	{KindCacheEvict, "cache-evict", false},
	{KindCacheFlush, "cache-flush", false},
	{KindTimedRead, "timed-read", false},
	{KindNoise, "noise", false},
	{KindSpanBegin, "span-begin", false},
	{KindSpanEnd, "span-end", false},
	{KindCalibration, "calibration", false},
	{KindAnnotation, "annotation", false},
}

func TestKindsExhaustive(t *testing.T) {
	all := AllKinds()
	if len(all) != len(kindTable) {
		t.Fatalf("AllKinds() has %d kinds, test table has %d — extend both when adding a kind",
			len(all), len(kindTable))
	}
	for i, row := range kindTable {
		if all[i] != row.kind {
			t.Errorf("AllKinds()[%d] = %v, want %v (declaration order)", i, all[i], row.kind)
		}
		if got := row.kind.String(); got != row.name {
			t.Errorf("%v.String() = %q, want %q", uint8(row.kind), got, row.name)
		}
		if got := row.kind.Architectural(); got != row.arch {
			t.Errorf("%v.Architectural() = %v, want %v — plane boundary out of date", row.name, got, row.arch)
		}
	}
	// Every declared kind must have a real name: a new kind that falls
	// through String()'s switch renders as "kind(N)" and fails here.
	for _, k := range all {
		if s := k.String(); s == "" || strings.HasPrefix(s, "kind(") {
			t.Errorf("kind %d has no name", k)
		}
	}
	if !strings.HasPrefix(Kind(200).String(), "kind(") {
		t.Error("unknown kind should render numerically")
	}
}

func TestRecorderBasics(t *testing.T) {
	r := NewRecorder(0)
	r.Record(Event{Kind: KindCommit, Text: "nop"})
	r.Record(Event{Kind: KindCacheFill, Addr: 0x40})
	if len(r.Events()) != 2 {
		t.Fatalf("events = %d", len(r.Events()))
	}
	if got := r.Architectural(); len(got) != 1 || got[0].Kind != KindCommit {
		t.Errorf("architectural = %v", got)
	}
	r.Reset()
	if len(r.Events()) != 0 {
		t.Error("reset did not clear")
	}
}

func TestRecorderLimitKeepsNewest(t *testing.T) {
	r := NewRecorder(3)
	for i := 0; i < 10; i++ {
		r.Record(Event{Kind: KindCommit, Cycle: int64(i)})
	}
	got := r.Events()
	if len(got) != 3 || r.Dropped() != 7 {
		t.Fatalf("events=%d dropped=%d, want 3/7", len(got), r.Dropped())
	}
	// Ring semantics: the newest tail (cycles 7,8,9) survives, in order.
	for i, want := range []int64{7, 8, 9} {
		if got[i].Cycle != want {
			t.Errorf("events[%d].Cycle = %d, want %d (oldest must be overwritten)", i, got[i].Cycle, want)
		}
	}
	r.Reset()
	if r.Dropped() != 0 || len(r.Events()) != 0 {
		t.Error("reset did not clear ring state")
	}
	// Refill after reset must behave like a fresh recorder.
	for i := 0; i < 4; i++ {
		r.Record(Event{Cycle: int64(100 + i)})
	}
	got = r.Events()
	if len(got) != 3 || got[0].Cycle != 101 || got[2].Cycle != 103 {
		t.Errorf("post-reset ring wrong: %v", got)
	}
}

func TestRecorderUnlimitedKeepsAll(t *testing.T) {
	r := NewRecorder(0)
	for i := 0; i < 100; i++ {
		r.Record(Event{Cycle: int64(i)})
	}
	if len(r.Events()) != 100 || r.Dropped() != 0 {
		t.Errorf("unlimited recorder: events=%d dropped=%d", len(r.Events()), r.Dropped())
	}
}

func TestDisabledRecorderDrops(t *testing.T) {
	var r *Recorder // nil: disabled
	r.Record(Event{Kind: KindCommit})
	if len(r.Events()) != 0 {
		t.Error("disabled recorder stored an event")
	}
	r = NewRecorder(0)
	r.Record(Event{Kind: KindCommit})
	if len(r.Events()) != 1 {
		t.Error("enabled recorder dropped an event")
	}
}

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Record(Event{Kind: KindCommit}) // must not panic
	if r.Enabled() || r.Events() != nil || r.Dropped() != 0 {
		t.Error("nil recorder misbehaved")
	}
	r.Reset() // must not panic
}

func TestEventString(t *testing.T) {
	e := Event{Kind: KindMemWrite, Cycle: 12, PC: 0x40, Addr: 0x80, Value: 9, Text: "x"}
	s := e.String()
	for _, want := range []string{"mem-write", "12", "0x40", "0x80"} {
		if !strings.Contains(s, want) {
			t.Errorf("event string %q missing %q", s, want)
		}
	}
}

func TestParseKindRoundTrip(t *testing.T) {
	for _, k := range AllKinds() {
		got, ok := ParseKind(k.String())
		if !ok || got != k {
			t.Errorf("ParseKind(%q) = %v, %v; want %v, true", k.String(), got, ok, k)
		}
	}
	if _, ok := ParseKind("no-such-kind"); ok {
		t.Error("ParseKind accepted an unknown name")
	}
	if _, ok := ParseKind(""); ok {
		t.Error("ParseKind accepted the empty string")
	}
}
