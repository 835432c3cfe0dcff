package health

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"uwm/internal/trace"
)

// calib returns a calibration event placing the threshold.
func calib(threshold int64, cycle int64) trace.Event {
	return trace.Event{Kind: trace.KindCalibration, Cycle: cycle, Value: uint64(threshold)}
}

// read returns a timed-read event for gate with the given latency.
func read(gate string, delta int64, cycle int64) trace.Event {
	bit := 0
	if delta < 129 {
		bit = 1
	}
	return trace.Event{
		Kind:  trace.KindTimedRead,
		Cycle: cycle,
		Value: uint64(delta),
		Text:  fmt.Sprintf("gate=%s out=0 bit=%d", gate, bit),
	}
}

func TestDefaults(t *testing.T) {
	if windowSize != 256 || baselineSamples != 64 || outlierCutoff != 4096 {
		t.Errorf("settings moved: window=%d baseline=%d outlier=%d", windowSize, baselineSamples, outlierCutoff)
	}
	if cusumThreshold != 12 || cusumSlack != 1 || cusumClamp != 4 {
		t.Errorf("CUSUM settings moved: h=%v k=%v clamp=%v", cusumThreshold, cusumSlack, cusumClamp)
	}
	m := NewMonitor()
	if !m.Healthy() || m.Drifting() {
		t.Error("fresh monitor must be healthy")
	}
}

func TestMarginTracking(t *testing.T) {
	m := NewMonitor()
	m.Emit(calib(129, 100))
	// Hits land ~36 cycles (margin −93), misses ~222 (margin +93).
	for i := 0; i < 10; i++ {
		m.Emit(read("AND", 36, int64(200+i)))
		m.Emit(read("TSX_XOR", 222, int64(300+i)))
	}
	s := m.Snapshot()
	if s.Threshold != 129 || s.Calibrations != 1 || s.Reads != 20 {
		t.Fatalf("snapshot header wrong: %+v", s)
	}
	if len(s.Gates) != 2 || s.Gates[0].Gate != "AND" || s.Gates[1].Gate != "TSX_XOR" {
		t.Fatalf("gates = %+v", s.Gates)
	}
	and, xor := s.Gates[0], s.Gates[1]
	if and.Family != "bp" || xor.Family != "tsx" {
		t.Errorf("families: %s=%s %s=%s", and.Gate, and.Family, xor.Gate, xor.Family)
	}
	if and.Margins.P50 != -93 || xor.Margins.P50 != 93 {
		t.Errorf("median margins: and=%v xor=%v", and.Margins.P50, xor.Margins.P50)
	}
	if and.Ones != 10 || xor.Ones != 0 {
		t.Errorf("ones: and=%d xor=%d", and.Ones, xor.Ones)
	}
	if len(and.MarginBins) == 0 {
		t.Error("no margin bins")
	}
}

func TestOutliersExcluded(t *testing.T) {
	m := NewMonitor()
	m.Emit(calib(129, 0))
	m.Emit(read("AND", 36, 1))
	m.Emit(read("AND", 1<<19, 2)) // TSX aborted-read sentinel
	m.Emit(read("AND", 9000, 3))  // interrupt outlier
	s := m.Snapshot()
	if s.Reads != 3 || s.Outliers != 2 {
		t.Fatalf("reads=%d outliers=%d, want 3/2", s.Reads, s.Outliers)
	}
	g := s.Gates[0]
	if g.Outliers != 2 || g.Margins.P50 != -93 {
		t.Errorf("gate outliers=%d p50=%v — outliers leaked into margins", g.Outliers, g.Margins.P50)
	}
}

func TestDriftDetectionAndReset(t *testing.T) {
	m := NewMonitor()
	m.Emit(calib(129, 0))
	cycle := int64(1)
	// Healthy regime: wide margins on both sides.
	for i := 0; i < 100; i++ {
		m.Emit(read("AND", 36, cycle))
		cycle++
		m.Emit(read("AND", 222, cycle))
		cycle++
	}
	if m.Drifting() {
		t.Fatal("drift flagged under stationary margins")
	}
	// Drifted regime: misses slide 120 cycles toward the threshold.
	for i := 0; i < 100; i++ {
		m.Emit(read("AND", 36, cycle))
		cycle++
		m.Emit(read("AND", 150, cycle))
		cycle++
	}
	if !m.Drifting() {
		t.Fatal("margin shrinkage not flagged")
	}
	if m.Healthy() {
		t.Error("drifting monitor reported healthy")
	}
	// Verdict latches even if margins recover without recalibration.
	for i := 0; i < 10; i++ {
		m.Emit(read("AND", 222, cycle))
		cycle++
	}
	if !m.Drifting() {
		t.Error("verdict did not latch")
	}
	// Recalibration resets the detector.
	m.Emit(calib(110, cycle))
	if m.Drifting() || !m.Healthy() {
		t.Error("calibration did not reset drift state")
	}
	s := m.Snapshot()
	if s.Calibrations != 2 || s.Threshold != 110 || s.CUSUM != 0 || s.BaselineReady {
		t.Errorf("post-reset snapshot: %+v", s)
	}
}

func TestStationaryNoiseNeverAlarms(t *testing.T) {
	// A fixed alternating stream must never trip the detector no matter
	// how long it runs — the property that keeps deterministic engine
	// runs free of spurious recalibrations.
	m := NewMonitor()
	m.Emit(calib(129, 0))
	for i := 0; i < 5000; i++ {
		d := int64(30 + i%13)
		if i%2 == 0 {
			d = 215 + int64(i%13)
		}
		m.Emit(read("AND", d, int64(i)))
	}
	if m.Drifting() {
		t.Error("stationary stream tripped the CUSUM")
	}
}

// TestSingleOutlierReadDoesNotAlarm pins the winsorization: one read
// landing in the gap near the threshold — a hit inflated by interrupt
// jitter — scores tens of baseline deviations raw, but clamped it must
// not trip the alarm by itself. A sustained run at the same latency is
// real erosion and must still alarm.
func TestSingleOutlierReadDoesNotAlarm(t *testing.T) {
	m := NewMonitor()
	m.Emit(calib(129, 0))
	cycle := int64(1)
	feed := func(d int64, n int) {
		for i := 0; i < n; i++ {
			m.Emit(read("AND", d, cycle))
			cycle++
			m.Emit(read("AND", 222, cycle))
			cycle++
		}
	}
	feed(36, 50) // healthy baseline + scoring regime

	m.Emit(read("AND", 130, cycle)) // one read 1 cycle past the threshold
	cycle++
	if m.Drifting() {
		t.Fatal("a single near-threshold read tripped the alarm")
	}
	feed(36, 20) // healthy traffic drains the statistic
	if m.Drifting() {
		t.Fatal("drift latched after an isolated outlier")
	}

	for i := 0; i < 20; i++ { // sustained near-threshold reads are real erosion
		m.Emit(read("AND", 130, cycle))
		cycle++
	}
	if !m.Drifting() {
		t.Error("sustained near-threshold reads not flagged")
	}
}

func TestObserveOutcome(t *testing.T) {
	m := NewMonitor()
	m.ObserveOutcome("AND", 16, 16)
	if !m.Healthy() {
		t.Error("perfect outcomes marked unhealthy")
	}
	for i := 0; i < 100; i++ {
		m.ObserveOutcome("AND", 8, 16) // 50% error
	}
	if m.Healthy() {
		t.Error("50% error rate still healthy")
	}
	s := m.Snapshot()
	if s.ErrorEWMA < 0.4 {
		t.Errorf("error EWMA = %v, want near 0.5", s.ErrorEWMA)
	}
	g := s.Gates[0]
	if g.Ops != 16+100*16 || g.Correct != 16+100*8 {
		t.Errorf("ops=%d correct=%d", g.Ops, g.Correct)
	}
	m.ObserveOutcome("AND", 0, 0) // ignored
}

func TestReplayMatchesLive(t *testing.T) {
	var events []trace.Event
	events = append(events, calib(129, 0))
	for i := 0; i < 200; i++ {
		events = append(events, read("AND", 36+int64(i%7), int64(i)))
		events = append(events, read("TSX_XOR", 220-int64(i%5), int64(i)))
	}
	for i := 0; i < 100; i++ {
		events = append(events, read("AND", 140, int64(500+i)))
	}

	live := NewMonitor()
	for _, e := range events {
		live.Emit(e)
	}
	replayed := Replay(events)

	ls, rs := live.Snapshot(), replayed.Snapshot()
	if !reflect.DeepEqual(ls, rs) {
		t.Fatalf("live and replayed snapshots differ:\nlive:   %+v\nreplay: %+v", ls, rs)
	}
	if live.Drifting() != replayed.Drifting() {
		t.Error("drift verdicts differ")
	}
	// And both must survive a JSON round trip (the API wire format).
	b, err := json.Marshal(ls)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Threshold != ls.Threshold || back.Drifting != ls.Drifting {
		t.Error("JSON round trip lost fields")
	}
}

func TestWindowBounded(t *testing.T) {
	m := NewMonitor()
	m.Emit(calib(129, 0))
	for i := 0; i < windowSize+100; i++ {
		m.Emit(read("AND", 36, int64(i)))
	}
	total := 0
	for _, b := range m.Snapshot().Gates[0].MarginBins {
		total += b.Count
	}
	if total != windowSize {
		t.Errorf("window holds %d samples, want %d", total, windowSize)
	}
}

func TestIgnoresForeignEvents(t *testing.T) {
	m := NewMonitor()
	m.Emit(trace.Event{Kind: trace.KindCacheFill, Addr: 0x40})
	m.Emit(trace.Event{Kind: trace.KindTimedRead, Text: "not a gate read"})
	m.Emit(trace.Event{Kind: trace.KindSpanBegin, Value: 1, Text: "job:x"})
	s := m.Snapshot()
	if s.Reads != 0 || len(s.Gates) != 0 {
		t.Errorf("foreign events counted: %+v", s)
	}
}

func TestRenderSnapshot(t *testing.T) {
	m := NewMonitor()
	m.Emit(calib(129, 0))
	for i := 0; i < 20; i++ {
		m.Emit(read("AND", 36, int64(i)))
	}
	out := RenderSnapshot(m.Snapshot(), 30)
	for _, want := range []string{"state=healthy", "threshold=129", "AND (bp)", "#"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	if got := RenderSnapshot(Snapshot{Drifting: true}, 0); !strings.Contains(got, "DRIFTING") {
		t.Errorf("drifting state not rendered: %s", got)
	}
}

// TestParseTimedRead: the monitor decodes timed reads with the shared
// trace codec and drops every payload the codec rejects.
func TestParseTimedRead(t *testing.T) {
	m := NewMonitor()
	m.Emit(calib(129, 0))
	m.Emit(trace.Event{Kind: trace.KindTimedRead, Cycle: 1, Value: 36, Text: trace.FormatTimedRead("TSX_AND", 2, 1)})
	for _, bad := range []string{"", "gate=", "nope", "gate=X out=y bit=z", "gate=X out=0 bit=7"} {
		m.Emit(trace.Event{Kind: trace.KindTimedRead, Cycle: 2, Value: 36, Text: bad})
	}
	s := m.Snapshot()
	if s.Reads != 1 || len(s.Gates) != 1 || s.Gates[0].Gate != "TSX_AND" {
		t.Errorf("want exactly the one well-formed read: %+v", s)
	}
}
