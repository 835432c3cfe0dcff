package health

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"uwm/internal/trace"
)

func timedRead(cycle, latency int64, bit int) trace.Event {
	return trace.Event{
		Kind:  trace.KindTimedRead,
		Cycle: cycle,
		Value: uint64(latency),
		Text:  fmt.Sprintf("gate=TSX_AND out=0 bit=%d", bit),
	}
}

// TestStateEventCheckpointReplay is the flight recorder's correctness
// contract: a monitor seeded from another monitor's StateEvent
// checkpoint and then fed the same event suffix must reach a
// byte-identical drift verdict, even though it never saw the prefix.
func TestStateEventCheckpointReplay(t *testing.T) {
	live := NewMonitor()

	live.Emit(trace.Event{Kind: trace.KindCalibration, Cycle: 100, Value: 120})
	cycle := int64(200)
	// Prefix only the live monitor sees: fills the baseline window.
	for i := 0; i < baselineSamples+24; i++ {
		live.Emit(timedRead(cycle, 60+int64(i%7), i%2))
		cycle += 50
	}

	ck := live.StateEvent()
	if ck.Kind != trace.KindAnnotation || !strings.HasPrefix(ck.Text, StateEventPrefix) {
		t.Fatalf("checkpoint event %+v, want %q annotation", ck, StateEventPrefix)
	}
	replayed := NewMonitor()
	replayed.Emit(ck)

	// Shared suffix: latencies shifted enough to move the CUSUM.
	for i := 0; i < 60; i++ {
		e := timedRead(cycle, 95+int64(i%5), i%2)
		live.Emit(e)
		replayed.Emit(e)
		cycle += 50
	}

	vLive, err := json.Marshal(live.Verdict())
	if err != nil {
		t.Fatal(err)
	}
	vReplay, err := json.Marshal(replayed.Verdict())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(vLive, vReplay) {
		t.Fatalf("verdicts diverged\nlive:   %s\nreplay: %s", vLive, vReplay)
	}

	// The checkpoint also transfers the scalar counters the verdict
	// reports, so the replayed monitor agrees on history, not just state.
	v := replayed.Verdict()
	if v.Calibrations != 1 || v.Threshold != 120 {
		t.Fatalf("replayed verdict %+v lost the checkpointed calibration", v)
	}
}

// TestStateEventSurvivesJSONRoundTrip mirrors the real path: the
// checkpoint travels through trace JSONL encoding before replay.
func TestStateEventSurvivesJSONRoundTrip(t *testing.T) {
	m := NewMonitor()
	m.Emit(trace.Event{Kind: trace.KindCalibration, Cycle: 10, Value: 99})
	for i := 0; i < baselineSamples+16; i++ {
		m.Emit(timedRead(int64(20+i*30), 40+int64(i%3), i%2))
	}
	ck := m.StateEvent()

	var buf bytes.Buffer
	if err := trace.EncodeJSONL(&buf, []trace.Event{ck}); err != nil {
		t.Fatal(err)
	}
	var wire struct {
		Text string `json:"text"`
	}
	if err := json.Unmarshal(buf.Bytes(), &wire); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(wire.Text, StateEventPrefix) {
		t.Fatalf("wire text %q lost the checkpoint prefix", wire.Text)
	}

	b := NewMonitor()
	b.Emit(trace.Event{Kind: trace.KindAnnotation, Cycle: ck.Cycle, Text: wire.Text})
	va, _ := json.Marshal(m.Verdict())
	vb, _ := json.Marshal(b.Verdict())
	if !bytes.Equal(va, vb) {
		t.Fatalf("round-tripped verdict diverged\nwant %s\ngot  %s", va, vb)
	}
}

// TestApplyStateIgnoresMalformed keeps a corrupted checkpoint from
// poisoning a replay: the annotation is skipped, not fatal.
func TestApplyStateIgnoresMalformed(t *testing.T) {
	m := NewMonitor()
	m.Emit(trace.Event{Kind: trace.KindAnnotation, Text: StateEventPrefix + "{not json"})
	m.Emit(trace.Event{Kind: trace.KindAnnotation, Text: "unrelated annotation"})
	if v := m.Verdict(); v.Calibrations != 0 || v.Drifting {
		t.Fatalf("malformed checkpoint mutated the monitor: %+v", v)
	}
}
