package core

import (
	"strings"
	"testing"

	"uwm/internal/metrics"
	"uwm/internal/noise"
	"uwm/internal/trace"
)

// TestRecalibratePreservesNoisePinning is the determinism contract behind
// self-recalibrating workers: a recalibration mid-run must neither change
// the threshold (under an unchanged noise profile) nor shift the position
// of the noise stream observed by subsequent gate activations.
func TestRecalibratePreservesNoisePinning(t *testing.T) {
	run := func(recal bool) ([]int64, int64) {
		m := MustNewMachine(Options{Seed: 5, Noise: noise.Paper()})
		g, err := NewTSXXor(m)
		if err != nil {
			t.Fatal(err)
		}
		var deltas []int64
		for i := 0; i < 50; i++ {
			_, d, err := g.RunTimed(i&1, i>>1&1)
			if err != nil {
				t.Fatal(err)
			}
			deltas = append(deltas, d[0])
		}
		if recal {
			if err := m.Recalibrate(); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 50; i++ {
			_, d, err := g.RunTimed(i&1, i>>1&1)
			if err != nil {
				t.Fatal(err)
			}
			deltas = append(deltas, d[0])
		}
		return deltas, m.Threshold()
	}
	base, th0 := run(false)
	recal, th1 := run(true)
	if th0 != th1 {
		t.Errorf("recalibration moved the threshold under unchanged noise: %d -> %d", th0, th1)
	}
	for i := range base {
		if base[i] != recal[i] {
			t.Fatalf("delta %d diverged after recalibration: %d vs %d — noise stream not pinned", i, base[i], recal[i])
		}
	}
}

// TestRecalibrateTracksDrift injects the constant DRAM-latency shift the
// health monitor is built to detect and checks that recalibration moves
// the threshold with it: miss latencies shift by the full delta, so the
// hit/miss midpoint shifts by about half.
func TestRecalibrateTracksDrift(t *testing.T) {
	reg := metrics.NewRegistry()
	m := MustNewMachine(Options{Seed: 9, Metrics: reg})
	th0 := m.Threshold()
	if m.Calibrations() != 1 {
		t.Fatalf("calibrations after construction = %d, want 1", m.Calibrations())
	}

	cfg := m.Noise().Config()
	cfg.MemLatencyDelta = -40
	m.Noise().SetConfig(cfg)
	if err := m.Recalibrate(); err != nil {
		t.Fatal(err)
	}
	th1 := m.Threshold()
	shift := th1 - th0
	if shift < -40 || shift > -10 {
		t.Errorf("threshold shift %d after MemLatencyDelta=-40, want about -20", shift)
	}
	if m.Calibrations() != 2 {
		t.Errorf("calibrations = %d, want 2", m.Calibrations())
	}
	if got := reg.Counter(MetricRecalibrations, "").Value(); got != 1 {
		t.Errorf("recalibration counter = %v, want 1", got)
	}
	if g := reg.Gauge(MetricThreshold, "").Value(); int64(g) != th1 {
		t.Errorf("threshold gauge = %v, want %d", g, th1)
	}
}

// TestCalibrationEventsEmitted checks that every calibration — including
// the initial one at construction — appears on the μarch trace plane, so
// an offline replay can reconstruct the threshold history.
func TestCalibrationEventsEmitted(t *testing.T) {
	rec := trace.NewRecorder(0)
	m := MustNewMachine(Options{Seed: 3, Sink: rec})
	evs := ofKind(rec, trace.KindCalibration)
	if len(evs) != 1 {
		t.Fatalf("calibration events after construction = %d, want 1", len(evs))
	}
	if int64(evs[0].Value) != m.Threshold() {
		t.Errorf("event threshold = %d, want %d", evs[0].Value, m.Threshold())
	}
	if !strings.Contains(evs[0].Text, "hit=") || !strings.Contains(evs[0].Text, "miss=") {
		t.Errorf("event text %q missing hit/miss medians", evs[0].Text)
	}
	if evs[0].Kind.Architectural() {
		t.Error("calibration leaked to the architectural plane")
	}
	if err := m.Recalibrate(); err != nil {
		t.Fatal(err)
	}
	if got := len(ofKind(rec, trace.KindCalibration)); got != 2 {
		t.Errorf("calibration events after Recalibrate = %d, want 2", got)
	}
}

// TestHealthTap checks the dedicated health feed: with no full sink
// attached, the tap still receives calibration and timed-read events —
// and nothing else, so the CPU's per-instruction emission stays elided.
func TestHealthTap(t *testing.T) {
	tap := trace.NewRecorder(0)
	m := MustNewMachine(Options{Seed: 6, TrainIterations: 4, HealthTap: tap})
	if got := len(ofKind(tap, trace.KindCalibration)); got != 1 {
		t.Fatalf("tap calibrations = %d, want 1", got)
	}
	g, err := NewTSXAnd(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(1, 1); err != nil {
		t.Fatal(err)
	}
	if got := len(ofKind(tap, trace.KindTimedRead)); got == 0 {
		t.Error("tap saw no timed reads")
	}
	for _, e := range tap.Events() {
		if e.Kind != trace.KindCalibration && e.Kind != trace.KindTimedRead {
			t.Fatalf("tap received %v — must only see calibration and timed reads", e.Kind)
		}
	}
}

// TestAnnotate checks span attribute plumbing: annotations attach to the
// innermost open span and vanish silently when no span (or sink) exists.
func TestAnnotate(t *testing.T) {
	rec := trace.NewRecorder(0)
	m := MustNewMachine(Options{Seed: 4, Sink: rec})

	m.Annotate("orphan=1") // no span open: dropped
	if len(ofKind(rec, trace.KindAnnotation)) != 0 {
		t.Fatal("annotation emitted with no open span")
	}

	id := m.BeginSpan("job:test")
	m.Annotate("request_id=abc123")
	m.EndSpan(id)

	evs := ofKind(rec, trace.KindAnnotation)
	if len(evs) != 1 {
		t.Fatalf("annotations = %d, want 1", len(evs))
	}
	if evs[0].Addr != id {
		t.Errorf("annotation span id = %d, want %d", evs[0].Addr, id)
	}
	if evs[0].Text != "request_id=abc123" {
		t.Errorf("annotation text = %q", evs[0].Text)
	}
	if evs[0].Kind.Architectural() {
		t.Error("annotation leaked to the architectural plane")
	}

	// Uninstrumented machine: both calls must be free no-ops.
	m2 := quiet(t)
	id2 := m2.BeginSpan("job:test")
	m2.Annotate("k=v")
	m2.EndSpan(id2)
}

// ofKind returns the recorded events of kind k.
func ofKind(r *trace.Recorder, k trace.Kind) []trace.Event {
	var out []trace.Event
	for _, e := range r.Events() {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}
