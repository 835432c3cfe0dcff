package evlog

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"
	"time"

	"uwm/internal/metrics"
)

// vclock is a deterministic test clock advancing a fixed step per call.
type vclock struct {
	now  time.Time
	step time.Duration
}

func (c *vclock) Now() time.Time {
	t := c.now
	c.now = c.now.Add(c.step)
	return t
}

func testClock(step time.Duration) *vclock {
	return &vclock{now: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC), step: step}
}

func TestNilLoggerIsSafe(t *testing.T) {
	var l *Logger
	l.Emit(Record{Level: Error, Component: "x", Event: "y"})
	if got := l.Recent(); got != nil {
		t.Fatalf("nil logger Recent = %v, want nil", got)
	}
	if err := l.Err(); err != nil {
		t.Fatalf("nil logger Err = %v", err)
	}
}

func TestEmitWritesJSONLAndRing(t *testing.T) {
	var buf bytes.Buffer
	clk := testClock(time.Second)
	l := New(Config{W: &buf, Clock: clk.Now})
	l.Emit(Record{Level: Info, Component: "engine", Event: "job.retry",
		JobID: "job-1", RequestID: "req-1", TraceID: "job-1",
		Fields: Fields{F("reason", "timeout"), F("attempt", "2")}})
	l.Emit(Record{Level: Debug, Component: "engine", Event: "noise"}) // below the minimum level, Info

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("got %d lines, want 1: %q", len(lines), buf.String())
	}
	var rec Record
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if rec.JobID != "job-1" || rec.RequestID != "req-1" || rec.TraceID != "job-1" {
		t.Fatalf("correlation ids lost: %+v", rec)
	}
	if rec.Fields.Get("reason") != "timeout" || rec.Fields.Get("attempt") != "2" {
		t.Fatalf("fields lost: %+v", rec.Fields)
	}
	if rec.At.IsZero() {
		t.Fatal("record not timestamped")
	}
	recent := l.Recent()
	if len(recent) != 1 || recent[0].Event != "job.retry" {
		t.Fatalf("ring = %+v, want the one kept record", recent)
	}
}

func TestFieldsMarshalOrderStable(t *testing.T) {
	fs := Fields{F("zeta", "1"), F("alpha", "2")}
	b, err := json.Marshal(fs)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := string(b), `{"zeta":"1","alpha":"2"}`; got != want {
		t.Fatalf("marshal = %s, want %s", got, want)
	}
}

func TestRateLimitSuppresssAndAnnotates(t *testing.T) {
	clk := testClock(0) // frozen clock: no refill
	reg := metrics.NewRegistry()
	l := New(Config{Clock: clk.Now, Metrics: reg})
	for i := 0; i < burst+7; i++ {
		l.Emit(Record{Level: Warn, Component: "engine", Event: "flood"})
	}
	recent := l.Recent()
	if len(recent) != burst {
		t.Fatalf("kept %d records, want burst of %d", len(recent), burst)
	}
	if v, ok := reg.Value(MetricSuppressed); !ok || v != 7 {
		t.Fatalf("suppressed counter = %v (ok=%v), want 7", v, ok)
	}

	// Refill a token by advancing the clock; the next record must pass
	// and carry the suppression count.
	clk.now = clk.now.Add(time.Second)
	l.Emit(Record{Level: Warn, Component: "engine", Event: "flood"})
	recent = l.Recent()
	last := recent[len(recent)-1]
	if last.Suppressed != 7 {
		t.Fatalf("passing record Suppressed = %d, want 7", last.Suppressed)
	}

	// A different (component, event) key has its own bucket.
	l.Emit(Record{Level: Warn, Component: "engine", Event: "other"})
	if got := len(l.Recent()); got != burst+2 {
		t.Fatalf("ring length = %d, want %d", got, burst+2)
	}
}

func TestUnlimitedBypassesRateLimit(t *testing.T) {
	clk := testClock(0)
	l := New(Config{Clock: clk.Now})
	for i := 0; i < 50; i++ {
		l.Emit(Record{Level: Info, Component: "slo", Event: "slo.observe", Unlimited: true})
	}
	if got := len(l.Recent()); got != 50 {
		t.Fatalf("kept %d unlimited records, want all 50", got)
	}
}

func TestRingWrapsOldestFirst(t *testing.T) {
	clk := testClock(time.Second) // one refill per record: nothing is rate-limited
	l := New(Config{Clock: clk.Now})
	for i := 0; i < ringSize+3; i++ {
		l.Emit(Record{Level: Info, Component: "c", Event: "e",
			Fields: Fields{F("i", strconv.Itoa(i))}})
	}
	recent := l.Recent()
	if len(recent) != ringSize {
		t.Fatalf("ring length = %d, want %d", len(recent), ringSize)
	}
	for i, r := range recent {
		want := strconv.Itoa(3 + i)
		if got := r.Fields.Get("i"); got != want {
			t.Fatalf("ring[%d] = %s, want %s", i, got, want)
		}
	}
}

func TestDecodeJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	clk := testClock(time.Second)
	l := New(Config{W: &buf, Clock: clk.Now})
	payload, _ := json.Marshal(map[string]any{"x": 1})
	want := []Record{
		{Level: Info, Component: "slo", Event: "slo.observe", JobID: "job-1", Data: payload, Unlimited: true},
		{Level: Error, Component: "engine", Event: "worker.panic", Msg: "boom"},
	}
	for _, r := range want {
		l.Emit(r)
	}
	var got []Record
	for dec := json.NewDecoder(&buf); dec.More(); {
		var r Record
		if err := dec.Decode(&r); err != nil {
			t.Fatal(err)
		}
		got = append(got, r)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(got), len(want))
	}
	if got[0].Event != "slo.observe" || string(got[0].Data) != string(payload) {
		t.Fatalf("record 0 mangled: %+v", got[0])
	}
	if got[1].Level != Error || got[1].Msg != "boom" {
		t.Fatalf("record 1 mangled: %+v", got[1])
	}
	if got[0].At.IsZero() || !got[1].At.After(got[0].At) {
		t.Fatalf("timestamps not preserved in order: %v %v", got[0].At, got[1].At)
	}
}

func TestLevelRoundTrip(t *testing.T) {
	for lv := Debug; lv <= Error; lv++ {
		b, err := json.Marshal(lv)
		if err != nil {
			t.Fatal(err)
		}
		var back Level
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if back != lv {
			t.Fatalf("level %v round-tripped to %v", lv, back)
		}
	}
	if _, ok := ParseLevel("bogus"); ok {
		t.Fatal("ParseLevel accepted bogus level")
	}
}
