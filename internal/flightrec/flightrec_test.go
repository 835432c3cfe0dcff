package flightrec

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"uwm/internal/metrics"
	"uwm/internal/trace"
)

// taps holds one Tap per recorder, so successive synthetic jobs reuse
// its ring as a worker's jobs do.
var taps = map[*Recorder]*Tap{}

// finish runs one synthetic job through the recorder: open a capture
// on the recorder's tap, emit n events into it, and apply the sampling
// decision.
func finish(r *Recorder, id, reqID, typ string, o Outcome, n int) Decision {
	tap := taps[r]
	if tap == nil {
		tap = NewTap()
		taps[r] = tap
	}
	c := r.Begin(tap, Meta{JobID: id, RequestID: reqID, Type: typ})
	for i := 0; i < n; i++ {
		c.Emit(trace.Event{Kind: trace.KindAnnotation, Cycle: int64(i), Text: "e"})
	}
	return r.Finish(c, o)
}

func healthy(latency time.Duration) Outcome {
	return Outcome{Status: "done", Latency: latency}
}

func TestDecisionPriority(t *testing.T) {
	r := New(Config{HeadRate: 1})
	cases := []struct {
		name   string
		o      Outcome
		reason string
		kept   bool
		pinned bool
	}{
		// Error outranks every other signal, even when they co-occur.
		{"error", Outcome{Status: "failed", Error: "boom", Disagreement: true, Retries: 2, Drifting: true}, ReasonError, true, true},
		{"canceled", Outcome{Status: "canceled"}, ReasonError, true, true},
		{"disagreement", Outcome{Status: "done", Disagreement: true, Retries: 1, Drifting: true}, ReasonDisagreement, true, false},
		{"retry", Outcome{Status: "done", Retries: 1, Drifting: true}, ReasonRetry, true, false},
		{"drift", Outcome{Status: "done", Drifting: true}, ReasonDrift, true, false},
		{"head", Outcome{Status: "done"}, ReasonHead, true, false},
	}
	for i, tc := range cases {
		d := finish(r, fmt.Sprintf("job-%d", i), "", "gate", tc.o, 3)
		if d.Kept != tc.kept || d.Reason != tc.reason || d.Pinned != tc.pinned {
			t.Errorf("%s: got %+v, want kept=%v reason=%s pinned=%v", tc.name, d, tc.kept, tc.reason, tc.pinned)
		}
	}
}

func TestHeadRateZeroRetainsNothing(t *testing.T) {
	r := New(Config{}) // zero HeadRate: healthy traffic is never kept
	for i := 0; i < 50; i++ {
		d := finish(r, fmt.Sprintf("job-%d", i), fmt.Sprintf("req-%d", i), "gate", healthy(time.Millisecond), 4)
		if d.Kept {
			t.Fatalf("job-%d kept (%s) with HeadRate 0", i, d.Reason)
		}
	}
	if idx := r.Index(); len(idx) != 0 {
		t.Fatalf("index holds %d entries, want 0", len(idx))
	}
	if _, ok := r.Get("job-0"); ok {
		t.Fatal("Get found a trace that should have been sampled out")
	}
}

func TestHeadRateOneKeepsEverything(t *testing.T) {
	r := New(Config{HeadRate: 1})
	for i := 0; i < 10; i++ {
		if d := finish(r, fmt.Sprintf("job-%d", i), "", "gate", healthy(time.Millisecond), 2); !d.Kept || d.Reason != ReasonHead {
			t.Fatalf("job-%d: %+v, want kept head sample", i, d)
		}
	}
	if idx := r.Index(); len(idx) != 10 {
		t.Fatalf("index holds %d entries, want 10", len(idx))
	}
}

func TestHeadKeepDeterministic(t *testing.T) {
	for i := 0; i < 100; i++ {
		id := fmt.Sprintf("job-%d", i)
		if headKeep(id, 0.5) != headKeep(id, 0.5) {
			t.Fatalf("headKeep(%q) is not deterministic", id)
		}
	}
	kept := 0
	for i := 0; i < 1000; i++ {
		if headKeep(fmt.Sprintf("job-%d", i), 0.5) {
			kept++
		}
	}
	if kept < 350 || kept > 650 {
		t.Fatalf("rate 0.5 kept %d/1000 — hash badly skewed", kept)
	}
}

func TestLRUEviction(t *testing.T) {
	reg := metrics.NewRegistry()
	r := New(Config{MaxKept: 3, HeadRate: 1, Metrics: reg})
	for i := 0; i < 5; i++ {
		finish(r, fmt.Sprintf("job-%d", i), fmt.Sprintf("req-%d", i), "gate", healthy(time.Millisecond), 2)
	}
	if idx := r.Index(); len(idx) != 3 {
		t.Fatalf("index holds %d entries, want 3", len(idx))
	}
	for _, gone := range []string{"job-0", "job-1", "req-0", "req-1"} {
		if _, ok := r.Get(gone); ok {
			t.Errorf("%s still resolvable after eviction", gone)
		}
	}
	for _, there := range []string{"job-2", "job-3", "job-4", "req-4"} {
		if _, ok := r.Get(there); !ok {
			t.Errorf("%s missing from the LRU", there)
		}
	}
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `uwm_flightrec_evictions_total{ring="kept"} 2`) {
		t.Errorf("eviction counter missing or wrong:\n%s", b.String())
	}
}

func TestErrorRingPinnedAgainstHealthyTraffic(t *testing.T) {
	r := New(Config{MaxKept: 2, ErrorRing: 2, HeadRate: 1})
	finish(r, "err-0", "", "gate", Outcome{Status: "failed", Error: "gate misfired"}, 2)
	finish(r, "err-1", "", "gate", Outcome{Status: "failed", Error: "gate misfired"}, 2)

	// A burst of healthy traffic far beyond both ring capacities.
	for i := 0; i < 40; i++ {
		finish(r, fmt.Sprintf("job-%d", i), "", "gate", healthy(time.Millisecond), 2)
	}
	for _, id := range []string{"err-0", "err-1"} {
		kt, ok := r.Get(id)
		if !ok {
			t.Fatalf("pinned error %s evicted by healthy traffic", id)
		}
		if !kt.Entry.Pinned || kt.Entry.Reason != ReasonError {
			t.Fatalf("%s: %+v, want pinned error", id, kt.Entry)
		}
	}

	// Only a newer error may rotate the ring.
	finish(r, "err-2", "", "gate", Outcome{Status: "failed", Error: "again"}, 2)
	if _, ok := r.Get("err-0"); ok {
		t.Fatal("err-0 should have been rotated out by err-2")
	}
	for _, id := range []string{"err-1", "err-2"} {
		if _, ok := r.Get(id); !ok {
			t.Fatalf("%s missing from the error ring", id)
		}
	}
}

func TestBoundedCaptureCountsDrops(t *testing.T) {
	reg := metrics.NewRegistry()
	r := New(Config{MaxEventsPerTrace: 8, HeadRate: 1, Metrics: reg})
	d := finish(r, "job-0", "", "gate", healthy(time.Millisecond), 20)
	if !d.Kept {
		t.Fatalf("decision %+v, want kept", d)
	}
	kt, ok := r.Get("job-0")
	if !ok {
		t.Fatal("trace not kept")
	}
	if len(kt.Events) != 8 {
		t.Fatalf("kept %d events, want the 8 newest", len(kt.Events))
	}
	// The ring overwrites oldest-first, so the survivors are the tail.
	if first := kt.Events[0].Cycle; first != 12 {
		t.Fatalf("oldest surviving event at cycle %d, want 12", first)
	}
	if kt.Entry.DroppedEvents != 12 {
		t.Fatalf("entry records %d dropped events, want 12", kt.Entry.DroppedEvents)
	}
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "uwm_trace_dropped_events_total 12") {
		t.Errorf("dropped-events counter missing or wrong:\n%s", b.String())
	}
}

func TestSlowQuantileKeep(t *testing.T) {
	r := New(Config{}) // HeadRate 0
	// Build per-type history; too little of it for the slow rule to fire.
	for i := 0; i < latencyMinSamples; i++ {
		if d := finish(r, fmt.Sprintf("warm-%d", i), "", "gate", healthy(10*time.Millisecond), 1); d.Kept {
			t.Fatalf("warm-%d kept (%s) before history filled", i, d.Reason)
		}
	}
	// Far above the median of the history: kept as slow.
	if d := finish(r, "slow-0", "", "gate", healthy(5*time.Second), 1); !d.Kept || d.Reason != ReasonSlow {
		t.Fatalf("slow job decision %+v, want kept slow", d)
	}
	// A different type has no history — never slow.
	if d := finish(r, "other-0", "", "sha1", healthy(5*time.Second), 1); d.Kept {
		t.Fatalf("job of fresh type kept (%s) without history", d.Reason)
	}
}

func TestDumpWritesTracesAndIndex(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "postmortem")
	r := New(Config{HeadRate: 1, PostmortemDir: dir})
	finish(r, "job-0", "req-0", "gate", healthy(time.Millisecond), 3)
	finish(r, "job-1", "", "gate", Outcome{Status: "failed", Error: "boom"}, 2)

	n, err := r.Postmortem()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("dumped %d traces, want 2", n)
	}
	for id, events := range map[string]int{"job-0": 3, "job-1": 2} {
		b, err := os.ReadFile(filepath.Join(dir, id+".jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		if lines := strings.Count(string(b), "\n"); lines != events {
			t.Errorf("%s.jsonl holds %d lines, want %d", id, lines, events)
		}
	}
	b, err := os.ReadFile(filepath.Join(dir, "index.json"))
	if err != nil {
		t.Fatal(err)
	}
	var entries []Entry
	if err := json.Unmarshal(b, &entries); err != nil {
		t.Fatalf("index.json: %v", err)
	}
	if len(entries) != 2 || entries[0].Seq < entries[1].Seq {
		t.Fatalf("index entries %+v, want 2 newest-first", entries)
	}
}

func TestSubscribeDeliversAndCancelReleases(t *testing.T) {
	r := New(Config{}) // decisions broadcast even when dropped
	ch, cancel := r.Subscribe()
	if r.Subscribers() != 1 {
		t.Fatalf("%d subscribers, want 1", r.Subscribers())
	}
	finish(r, "job-0", "req-0", "gate", healthy(time.Millisecond), 1)
	select {
	case e := <-ch:
		if e.ID != "job-0" || e.Kept || e.Reason != ReasonSampledOut {
			t.Fatalf("entry %+v, want dropped job-0", e)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no entry delivered")
	}
	// A stalled subscriber's full buffer must not block workers.
	for i := 0; i < 64; i++ {
		finish(r, fmt.Sprintf("flood-%d", i), "", "gate", healthy(time.Millisecond), 1)
	}
	cancel()
	cancel() // idempotent
	if r.Subscribers() != 0 {
		t.Fatalf("%d subscribers after cancel, want 0", r.Subscribers())
	}
	if _, open := <-ch; open {
		// Drain buffered entries until close.
		for range ch {
		}
	}
}

func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	if c := r.Begin(NewTap(), Meta{JobID: "x"}); c != nil {
		t.Fatal("nil recorder returned a capture")
	}
	if d := r.Finish(nil, Outcome{}); d.Kept {
		t.Fatal("nil recorder kept a trace")
	}
	if _, ok := r.Get("x"); ok {
		t.Fatal("nil recorder resolved an id")
	}
	if idx := r.Index(); idx != nil {
		t.Fatal("nil recorder returned an index")
	}
	if n, err := r.Postmortem(); n != 0 || err != nil {
		t.Fatalf("nil recorder postmortem: %d, %v", n, err)
	}
	var tap *Tap
	tap.Set(nil) // must not panic
	if tap.Enabled() {
		t.Fatal("nil tap enabled")
	}
}

func TestTapRoutesOnlyWhileSet(t *testing.T) {
	r := New(Config{HeadRate: 1})
	tap := NewTap()
	tap.Emit(trace.Event{Kind: trace.KindAnnotation, Text: "before"}) // no capture: dropped
	c := r.Begin(tap, Meta{JobID: "job-0", Type: "gate"})
	tap.Set(c)
	if !tap.Enabled() {
		t.Fatal("tap with capture reports disabled")
	}
	tap.Emit(trace.Event{Kind: trace.KindAnnotation, Text: "during"})
	tap.Set(nil)
	tap.Emit(trace.Event{Kind: trace.KindAnnotation, Text: "after"})
	r.Finish(c, healthy(time.Millisecond))
	kt, ok := r.Get("job-0")
	if !ok {
		t.Fatal("trace not kept")
	}
	if len(kt.Events) != 1 || kt.Events[0].Text != "during" {
		t.Fatalf("capture holds %v, want exactly the in-window event", kt.Events)
	}
}

// TestTapRingReuseKeepsTracesIntact runs two jobs through one Tap: the
// second job overwrites the shared ring, and must leave the first
// job's kept trace and both index entries as they were recorded.
func TestTapRingReuseKeepsTracesIntact(t *testing.T) {
	r := New(Config{MaxEventsPerTrace: 8, HeadRate: 1})
	tap := NewTap()
	run := func(id string, n int) *KeptTrace {
		c := r.Begin(tap, Meta{JobID: id, Type: "gate"})
		c.Seed(trace.Event{Kind: trace.KindAnnotation, Text: id + "-seed"})
		tap.Set(c)
		for i := 0; i < n; i++ {
			tap.Emit(trace.Event{Kind: trace.KindAnnotation, Cycle: int64(i), Text: id})
		}
		tap.Set(nil)
		if d := r.Finish(c, healthy(time.Millisecond)); !d.Kept {
			t.Fatalf("%s: decision %+v, want kept", id, d)
		}
		kt, ok := r.Get(id)
		if !ok {
			t.Fatalf("%s: trace not kept", id)
		}
		return kt
	}
	first := run("job-0", 5)
	want := append([]trace.Event(nil), first.Events...)
	second := run("job-1", 20)

	if len(first.Events) != 6 || first.Entry.Events != 6 || first.Entry.DroppedEvents != 0 {
		t.Fatalf("first trace: %d events, entry %d/%d dropped, want 6/6/0",
			len(first.Events), first.Entry.Events, first.Entry.DroppedEvents)
	}
	for i := range want {
		if first.Events[i] != want[i] {
			t.Fatalf("first trace event %d changed to %v after the second job, want %v", i, first.Events[i], want[i])
		}
	}
	if first.Events[0].Text != "job-0-seed" || first.Events[5].Text != "job-0" || first.Events[5].Cycle != 4 {
		t.Fatalf("first trace %v, want its seed then cycles 0..4", first.Events)
	}
	if len(second.Events) != 9 || second.Entry.Events != 9 || second.Entry.DroppedEvents != 12 {
		t.Fatalf("second trace: %d events, entry %d/%d dropped, want 9/9/12",
			len(second.Events), second.Entry.Events, second.Entry.DroppedEvents)
	}
	if second.Events[0].Text != "job-1-seed" || second.Events[1].Cycle != 12 || second.Events[8].Cycle != 19 {
		t.Fatalf("second trace %v, want its seed then cycles 12..19", second.Events)
	}
	if &first.Events[len(first.Events)-1] == &second.Events[len(second.Events)-1] {
		t.Fatal("kept traces share a backing array")
	}
}

// TestConcurrentFinishesKeepEveryTrace has four workers, each with its
// own Tap, finish kept jobs while a reader lists and fetches traces:
// the copy out of each ring runs outside the recorder's lock.
func TestConcurrentFinishesKeepEveryTrace(t *testing.T) {
	const workers, jobs = 4, 25
	r := New(Config{MaxKept: workers * jobs, MaxEventsPerTrace: 16, HeadRate: 1})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tap := NewTap()
			for j := 0; j < jobs; j++ {
				c := r.Begin(tap, Meta{JobID: fmt.Sprintf("w%d-job-%d", w, j), Type: "gate"})
				tap.Set(c)
				for i := 0; i < 40; i++ {
					tap.Emit(trace.Event{Kind: trace.KindAnnotation, Cycle: int64(i)})
				}
				tap.Set(nil)
				r.Finish(c, healthy(time.Millisecond))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			for _, e := range r.Index() {
				r.Get(e.ID)
			}
		}
	}()
	wg.Wait()
	<-done
	idx := r.Index()
	if len(idx) != workers*jobs {
		t.Fatalf("index holds %d traces, want %d", len(idx), workers*jobs)
	}
	for _, e := range idx {
		kt, ok := r.Get(e.ID)
		if !ok || len(kt.Events) != 16 || kt.Events[0].Cycle != 24 || kt.Entry.DroppedEvents != 24 {
			t.Fatalf("%s: kept %v, want the 16 newest of 40 events", e.ID, kt)
		}
	}
}
