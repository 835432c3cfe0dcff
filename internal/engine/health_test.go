package engine

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"uwm/internal/health"
	"uwm/internal/metrics"
	"uwm/internal/trace"
)

// submitGateBatch runs n TSX_AND gate jobs to completion, serially, so
// the single worker's monitor state advances deterministically.
func submitGateBatch(t *testing.T, e *Engine, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		j := mustSubmit(t, e, JobSpec{
			Type:   JobTypeGate,
			Params: rawParams(t, GateParams{Gate: "TSX_AND", Random: 16}),
		})
		snap := waitJob(t, j)
		if snap.Status != StatusDone {
			t.Fatalf("gate job %d: status=%s err=%s", i, snap.Status, snap.Error)
		}
	}
}

// TestWorkerDriftRecalibration is the deterministic drift scenario of
// the acceptance criteria: a worker machine whose DRAM latency shifts
// mid-run must be flagged by its health monitor, recover through
// exactly one recalibration, and produce the identical drift history
// when the recorded trace is replayed offline through a fresh monitor.
func TestWorkerDriftRecalibration(t *testing.T) {
	rec := trace.NewRecorder(0)
	reg := metrics.NewRegistry()
	e := newTestEngine(t, Config{
		Workers: 1,
		Metrics: reg,
		Sink:    rec,
	})
	rig := e.rigs[0]
	th0 := rig.Machine.Threshold()

	// Phase 1: healthy traffic establishes the CUSUM baseline.
	submitGateBatch(t, e, 8)
	if rig.Health.Drifting() {
		t.Fatal("drift flagged under stationary noise")
	}
	if got := rig.Machine.Calibrations(); got != 1 {
		t.Fatalf("calibrations after healthy phase = %d, want 1", got)
	}

	// Phase 2: inject drift — a constant DRAM-latency shift that pulls
	// miss latencies toward the threshold without changing any decoded
	// bit or consuming a single RNG draw.
	cfg := rig.Machine.Noise().Config()
	cfg.MemLatencyDelta = -45
	rig.Machine.Noise().SetConfig(cfg)
	submitGateBatch(t, e, 8)

	// The worker must have detected the drift at a job boundary and
	// recalibrated exactly once: the recalibration re-centers the
	// threshold on the drifted latencies, so the monitor's fresh
	// baseline is healthy again and no second alarm fires.
	if got := rig.Machine.Calibrations(); got != 2 {
		t.Fatalf("calibrations after drift = %d, want 2 (exactly one recalibration)", got)
	}
	if rig.Health.Drifting() {
		t.Error("drift verdict still latched after recalibration")
	}
	th1 := rig.Machine.Threshold()
	if shift := th1 - th0; shift < -45 || shift > -10 {
		t.Errorf("threshold shift %d, want about -22 for MemLatencyDelta=-45", shift)
	}
	st := e.Stats()
	if st.DriftingWorkers != 0 || st.HealthyWorkers != 1 {
		t.Errorf("stats healthy=%d drifting=%d, want 1/0", st.HealthyWorkers, st.DriftingWorkers)
	}
	if got := reg.Counter(MetricRecalibrations, "",
		metrics.L("worker", "0"), metrics.L("outcome", "ok")).Value(); got != 1 {
		t.Errorf("recalibration counter = %d, want 1", got)
	}

	// Live == offline: replaying the recorded trace through a fresh
	// monitor must reproduce the drift history —
	// same threshold, same calibration count, same read counts, same
	// final verdict.
	live := rig.Health.Snapshot()
	offline := health.Replay(rec.Events()).Snapshot()
	if offline.Threshold != live.Threshold {
		t.Errorf("offline threshold %d != live %d", offline.Threshold, live.Threshold)
	}
	if offline.Calibrations != live.Calibrations {
		t.Errorf("offline calibrations %d != live %d", offline.Calibrations, live.Calibrations)
	}
	if offline.Reads != live.Reads || offline.Outliers != live.Outliers {
		t.Errorf("offline reads/outliers %d/%d != live %d/%d",
			offline.Reads, offline.Outliers, live.Reads, live.Outliers)
	}
	if offline.Drifting != live.Drifting || offline.CUSUM != live.CUSUM {
		t.Errorf("offline verdict (drifting=%v cusum=%v) != live (drifting=%v cusum=%v)",
			offline.Drifting, offline.CUSUM, live.Drifting, live.CUSUM)
	}
	if offline.MarginEWMA != live.MarginEWMA {
		t.Errorf("offline margin EWMA %v != live %v", offline.MarginEWMA, live.MarginEWMA)
	}

	// The health snapshot must expose the gate family that ran.
	found := false
	for _, g := range live.Gates {
		if g.Gate == "TSX_AND" && g.Family == "tsx" && g.Reads > 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("TSX_AND missing from snapshot gates: %+v", live.Gates)
	}
}

// TestEngineHealthSnapshot covers the Health() accessor and the outcome
// feed from gate jobs.
func TestEngineHealthSnapshot(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 2})
	j := mustSubmit(t, e, JobSpec{
		Type:   JobTypeGate,
		Params: rawParams(t, GateParams{Gate: "TSX_XOR", Random: 8}),
	})
	waitJob(t, j)

	hs := e.Health()
	if len(hs) != 2 {
		t.Fatalf("health snapshots = %d, want 2", len(hs))
	}
	for i, h := range hs {
		if h.Worker != i {
			t.Errorf("snapshot %d has worker id %d", i, h.Worker)
		}
	}
	// Exactly one worker ran the job; its monitor saw reads and an
	// outcome.
	total := int64(0)
	ops := int64(0)
	for _, h := range hs {
		total += h.Snapshot.Reads
		for _, g := range h.Snapshot.Gates {
			ops += g.Ops
		}
	}
	if total == 0 {
		t.Error("no worker monitor saw timed reads")
	}
	if ops != 8 {
		t.Errorf("observed ops = %d, want 8", ops)
	}
}

// TestRequestIDAnnotation checks that a job's correlation id lands as a
// span annotation in the trace stream.
func TestRequestIDAnnotation(t *testing.T) {
	rec := trace.NewRecorder(0)
	e := newTestEngine(t, Config{Workers: 1, Sink: rec})
	j := mustSubmit(t, e, JobSpec{
		Type:      JobTypeGate,
		Params:    rawParams(t, GateParams{Gate: "TSX_ASSIGN", Inputs: [][]int{{1}}}),
		RequestID: "req-abc123",
	})
	snap := waitJob(t, j)
	if snap.RequestID != "req-abc123" {
		t.Errorf("snapshot request id = %q", snap.RequestID)
	}

	anns := ofKind(rec, trace.KindAnnotation)
	if len(anns) == 0 {
		t.Fatal("no annotation events recorded")
	}
	var hit *trace.Event
	for i := range anns {
		if strings.Contains(anns[i].Text, "request_id=req-abc123") {
			hit = &anns[i]
		}
	}
	if hit == nil {
		t.Fatalf("no annotation carries the request id: %v", anns)
	}
	if !strings.Contains(hit.Text, "job="+j.ID()) {
		t.Errorf("annotation %q missing job id", hit.Text)
	}
	// The annotation must point at the job span it decorates.
	found := false
	for _, e := range ofKind(rec, trace.KindSpanBegin) {
		if e.Value == hit.Addr && strings.HasPrefix(e.Text, "job:") {
			found = true
		}
	}
	if !found {
		t.Error("annotation's span id does not match any job span")
	}
}

// TestRetryReasonLabels checks the satellite retry-metric split: an
// erroring handler produces reason="error" retries, and disagreeing
// successful attempts produce reason="mismatch" plus a disagreement
// count.
func TestRetryReasonLabels(t *testing.T) {
	errFlaky := errors.New("flaky handler")
	flaky := 0
	Register("test-flaky", func(ctx context.Context, env *Env, params json.RawMessage) (any, error) {
		flaky++
		if flaky == 1 {
			return nil, errFlaky
		}
		return "ok", nil
	})
	split := 0
	Register("test-split", func(ctx context.Context, env *Env, params json.RawMessage) (any, error) {
		split++
		return split, nil // every attempt disagrees
	})

	reg := metrics.NewRegistry()
	e := newTestEngine(t, Config{Workers: 1, Metrics: reg})

	j := mustSubmit(t, e, JobSpec{Type: "test-flaky", Attempts: 2})
	if s := waitJob(t, j); s.Status != StatusDone {
		t.Fatalf("flaky job: %s (%s)", s.Status, s.Error)
	}
	typeL := metrics.L("type", "test-flaky")
	if got := reg.Counter(MetricRetries, "", typeL, metrics.L("reason", RetryError)).Value(); got != 1 {
		t.Errorf("error retries = %d, want 1", got)
	}

	j = mustSubmit(t, e, JobSpec{Type: "test-split", Attempts: 3, Vote: 2})
	s := waitJob(t, j)
	if s.Status != StatusDone || s.Result == nil || s.Result.Quorum {
		t.Fatalf("split job: %+v", s)
	}
	typeL = metrics.L("type", "test-split")
	if got := reg.Counter(MetricRetries, "", typeL, metrics.L("reason", RetryMismatch)).Value(); got != 2 {
		t.Errorf("mismatch retries = %d, want 2", got)
	}
	if got := reg.Counter(MetricDisagreements, "", typeL).Value(); got != 2 {
		t.Errorf("disagreements = %d, want 2", got)
	}
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
