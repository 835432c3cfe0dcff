package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"uwm/internal/flightrec"
	"uwm/internal/health"
	"uwm/internal/metrics"
)

// TestFlightRecorderHealthyTrafficRetainsNothing is half of the
// acceptance criterion: with head sampling off, a stream of healthy,
// fast, first-try jobs leaves the recorder empty.
func TestFlightRecorderHealthyTrafficRetainsNothing(t *testing.T) {
	fr := flightrec.New(flightrec.Config{}) // zero HeadRate
	e := newTestEngine(t, Config{Workers: 1, FlightRec: fr})
	submitGateBatch(t, e, 6)
	if idx := fr.Index(); len(idx) != 0 {
		t.Fatalf("healthy traffic left %d kept traces: %+v", len(idx), idx)
	}
}

// TestFlightRecorderErrorKeepAndVerdictReplay is the tentpole
// acceptance scenario: inject deterministic drift, force a job to fail
// its accuracy floor, and check that (a) the failure's trace is kept
// and pinned, retrievable by job and request id, (b) replaying the
// fetched events through a fresh health monitor reproduces the live
// drift verdict byte-for-byte, and (c) healthy traffic afterwards never
// evicts the pinned error.
func TestFlightRecorderErrorKeepAndVerdictReplay(t *testing.T) {
	reg := metrics.NewRegistry()
	// MaxEventsPerTrace -1: byte-for-byte replay needs every read of the
	// failing job; a truncated ring would replay a weaker verdict.
	fr := flightrec.New(flightrec.Config{MaxKept: 4, ErrorRing: 4, MaxEventsPerTrace: -1, Metrics: reg})
	e := newTestEngine(t, Config{Workers: 1, FlightRec: fr, Metrics: reg})
	rig := e.rigs[0]

	// Healthy phase establishes the monitor baseline.
	submitGateBatch(t, e, 8)

	// Inject drift strong enough to pull miss latencies across the
	// threshold: decoded bits flip and the accuracy floor fails the job.
	cfg := rig.Machine.Noise().Config()
	cfg.MemLatencyDelta = -60
	rig.Machine.Noise().SetConfig(cfg)
	j := mustSubmit(t, e, JobSpec{
		Type:      JobTypeGate,
		RequestID: "req-failure",
		Params:    rawParams(t, GateParams{Gate: "TSX_AND", Random: 64, MinAccuracy: 0.95}),
	})
	snap := waitJob(t, j)
	if snap.Status != StatusFailed {
		t.Fatalf("drifted job finished %s (%s), want failed", snap.Status, snap.Error)
	}
	if !strings.Contains(snap.Error, "below floor") {
		t.Fatalf("failure %q does not name the accuracy floor", snap.Error)
	}

	kt, ok := fr.Get(j.ID())
	if !ok {
		t.Fatal("failed job's trace was not kept")
	}
	if byReq, ok := fr.Get("req-failure"); !ok || byReq != kt {
		t.Fatal("trace not resolvable by request id")
	}
	ent := kt.Entry
	if !ent.Kept || ent.Reason != flightrec.ReasonError || !ent.Pinned {
		t.Fatalf("entry %+v, want kept pinned error", ent)
	}
	if ent.ID != j.ID() || ent.RequestID != "req-failure" || ent.Type != JobTypeGate || ent.Status != string(StatusFailed) {
		t.Fatalf("entry identity wrong: %+v", ent)
	}
	if ent.Verdict == nil {
		t.Fatal("entry carries no live verdict")
	}
	if len(kt.Events) == 0 {
		t.Fatal("kept trace holds no events")
	}
	// The capture opens with the monitor's drift-state checkpoint — that
	// is what makes the single-job recording self-contained.
	if first := kt.Events[0]; !strings.HasPrefix(first.Text, health.StateEventPrefix) {
		t.Fatalf("first event %q is not the health checkpoint", first.Text)
	}

	// Replay the recording offline through a fresh monitor. The drift
	// verdict must match the live one exactly.
	liveJSON, err := json.Marshal(ent.Verdict)
	if err != nil {
		t.Fatal(err)
	}
	replayVerdict := health.Replay(kt.Events).Verdict()
	replayJSON, err := json.Marshal(&replayVerdict)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(liveJSON, replayJSON) {
		t.Fatalf("replayed verdict diverged from live\nlive:   %s\nreplay: %s", liveJSON, replayJSON)
	}
	if !replayVerdict.Drifting {
		t.Error("replayed verdict is not drifting — the injected drift left no evidence")
	}

	// The kept trace's latency sample carries a trace-id exemplar.
	var expo strings.Builder
	if err := reg.WriteText(&expo); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(expo.String(), `trace_id="`+j.ID()+`"`) {
		t.Errorf("latency histogram has no exemplar for %s", j.ID())
	}

	// After the failure the worker recalibrates at the job boundary, so
	// follow-up traffic is healthy again — and must never evict the
	// pinned error, no matter how much of it arrives.
	submitGateBatch(t, e, 10)
	if _, ok := fr.Get(j.ID()); !ok {
		t.Fatal("pinned error evicted by healthy traffic")
	}
	if _, ok := fr.Get("req-failure"); !ok {
		t.Fatal("request-id mapping lost")
	}
}

// TestWorkerPanicDumpsPostmortem checks the crash path: a panicking
// handler is isolated to a failed attempt, the pool survives, and the
// flight recorder dumps its kept traces to the post-mortem directory.
func TestWorkerPanicDumpsPostmortem(t *testing.T) {
	Register("test-panic", func(ctx context.Context, env *Env, params json.RawMessage) (any, error) {
		panic("gate fell over")
	})
	dir := filepath.Join(t.TempDir(), "postmortem")
	fr := flightrec.New(flightrec.Config{PostmortemDir: dir})
	e := newTestEngine(t, Config{Workers: 1, FlightRec: fr})

	j := mustSubmit(t, e, JobSpec{Type: "test-panic"})
	snap := waitJob(t, j)
	if snap.Status != StatusFailed || !strings.Contains(snap.Error, "panic") {
		t.Fatalf("panicking job: %s (%s), want failed with panic", snap.Status, snap.Error)
	}

	// The pool survived: the same worker still serves jobs.
	submitGateBatch(t, e, 1)

	b, err := os.ReadFile(filepath.Join(dir, "index.json"))
	if err != nil {
		t.Fatalf("post-mortem index not written: %v", err)
	}
	var entries []flightrec.Entry
	if err := json.Unmarshal(b, &entries); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ent := range entries {
		if ent.ID == j.ID() && ent.Reason == flightrec.ReasonError {
			found = true
		}
	}
	if !found {
		t.Fatalf("panic job missing from post-mortem index: %+v", entries)
	}
	if _, err := os.Stat(filepath.Join(dir, j.ID()+".jsonl")); err != nil {
		t.Fatalf("panic job's trace file missing: %v", err)
	}
}

// TestDisagreementBallots checks the Ballots plumbing the recorder's
// keep-on-disagreement rule reads.
func TestDisagreementBallots(t *testing.T) {
	split := 0
	Register("test-ballots", func(ctx context.Context, env *Env, params json.RawMessage) (any, error) {
		split++
		return split, nil
	})
	fr := flightrec.New(flightrec.Config{}) // HeadRate 0: only the tail rules keep
	e := newTestEngine(t, Config{Workers: 1, FlightRec: fr})

	j := mustSubmit(t, e, JobSpec{Type: "test-ballots", Attempts: 3, Vote: 2})
	snap := waitJob(t, j)
	if snap.Status != StatusDone || snap.Result == nil {
		t.Fatalf("split job: %+v", snap)
	}
	if snap.Result.Ballots != 3 {
		t.Fatalf("ballots = %d, want 3 distinct candidates", snap.Result.Ballots)
	}
	kt, ok := fr.Get(j.ID())
	if !ok {
		t.Fatal("disagreeing job's trace was not kept")
	}
	if kt.Entry.Reason != flightrec.ReasonDisagreement || !kt.Entry.Disagreement {
		t.Fatalf("entry %+v, want keep-on-disagreement", kt.Entry)
	}
}
