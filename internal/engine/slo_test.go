package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"testing"
	"time"

	"uwm/internal/evlog"
	"uwm/internal/flightrec"
	"uwm/internal/metrics"
	"uwm/internal/slo"
)

// sloClock is the virtual clock the SLO engine evaluates against: one
// second per observation, starting at a fixed epoch, so the alert
// timeline is a deterministic function of the job stream.
type sloClock struct {
	now time.Time
}

func newSLOClock() *sloClock {
	return &sloClock{now: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *sloClock) Now() time.Time {
	t := c.now
	c.now = c.now.Add(time.Second)
	return t
}

// tightGateSLO is the acceptance-test objective: 99% gate accuracy
// under the fast page policy alone. Healthy TSX gates run in the
// 0.92–0.99 accuracy band, so the natural error stream burns at
// ~2.3× — below the fast 14.4 threshold but above the slow policy's
// 1.0, which would page on noise; a real deployment pairs the slow
// policy with a looser objective (see DefaultSLOs' 0.90). MinEvents
// 100 keeps the tiny first-job windows from evaluating.
func tightGateSLO() []slo.Definition {
	return []slo.Definition{{
		Name: "gate-accuracy", Kind: slo.KindGateAccuracy, Objective: 0.99,
		MinEvents: 100,
		Policies: []slo.BurnPolicy{{
			Name: "fast", Severity: slo.SeverityPage,
			ShortWindow: slo.Duration(5 * time.Minute), LongWindow: slo.Duration(time.Hour),
			BurnRate: 14.4, ResolveRatio: 0.9,
		}},
	}}
}

// TestSLODriftBurnsBudgetFiresAndReplays is the tentpole acceptance
// scenario: deterministic mem-latency drift flips decoded gate bits,
// the gate-accuracy SLO burns its error budget, the fast multi-window
// burn-rate alert fires within its 5-minute short window on the
// virtual clock, the alert payload names the failing job's kept flight
// recording (pinned against eviction), and replaying the recorded
// event log offline reproduces the live alert timeline byte-for-byte.
func TestSLODriftBurnsBudgetFiresAndReplays(t *testing.T) {
	reg := metrics.NewRegistry()
	fr := flightrec.New(flightrec.Config{MaxKept: 4, ErrorRing: 4, Metrics: reg})
	var journal bytes.Buffer
	log := evlog.New(evlog.Config{W: &journal})
	clk := newSLOClock()
	sloEng, err := slo.New(slo.Config{
		SLOs: tightGateSLO(), Log: log, Pinner: fr, Clock: clk.Now, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, sub := sloEng.Subscribe()
	e := newTestEngine(t, Config{
		Workers: 1, FlightRec: fr, Metrics: reg, SLO: sloEng, Log: log,
	})
	rig := e.rigs[0]

	// Healthy phase: 8 gate jobs, 16 correct ops each, no alert.
	submitGateBatch(t, e, 8)
	if n := sloEng.Firing(); n != 0 {
		t.Fatalf("healthy traffic fired %d alerts", n)
	}

	// Inject the deterministic drift from the flight-recorder scenario:
	// a -60-cycle DRAM latency shift flips decoded bits, the job fails
	// its accuracy floor, and its bad ops charge the gate-accuracy
	// budget.
	cfg := rig.Machine.Noise().Config()
	cfg.MemLatencyDelta = -60
	rig.Machine.Noise().SetConfig(cfg)
	j := mustSubmit(t, e, JobSpec{
		Type:      JobTypeGate,
		RequestID: "req-drift",
		Params:    rawParams(t, GateParams{Gate: "TSX_AND", Random: 64, MinAccuracy: 0.95}),
	})
	snap := waitJob(t, j)
	if snap.Status != StatusFailed {
		t.Fatalf("drifted job finished %s (%s), want failed", snap.Status, snap.Error)
	}

	// The fast page fires on the drift job's own observation.
	if n := sloEng.Firing(); n == 0 {
		t.Fatal("drift burned no alert")
	}
	timeline := drainTransitions(sub)
	if len(timeline) == 0 {
		t.Fatal("no transitions recorded")
	}
	fire := timeline[0]
	if fire.State != slo.StateFiring || fire.Policy != "fast" || fire.Severity != slo.SeverityPage {
		t.Fatalf("first transition %+v, want the fast page firing", fire)
	}
	if fire.BurnShort < 14.4 || fire.BurnLong < 14.4 {
		t.Fatalf("fire burn rates %v/%v below the 14.4 threshold", fire.BurnShort, fire.BurnLong)
	}
	// Within the 5-minute short window on the virtual clock: 9 jobs at
	// one second apiece.
	if elapsed := fire.At.Sub(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)); elapsed >= 5*time.Minute {
		t.Fatalf("alert fired %v after epoch, outside the 5m short window", elapsed)
	}

	// The payload correlates: it names the failing job's kept trace,
	// the id resolves to a flight recording, and that recording is now
	// pinned against eviction.
	if len(fire.TraceIDs) == 0 {
		t.Fatal("firing transition carries no correlated trace ids")
	}
	found := false
	for _, id := range fire.TraceIDs {
		if id == j.ID() {
			found = true
		}
		if _, ok := fr.Get(id); !ok {
			t.Fatalf("alert trace id %s does not resolve to a kept recording", id)
		}
	}
	if !found {
		t.Fatalf("alert trace ids %v miss the drift job %s", fire.TraceIDs, j.ID())
	}
	if fr.AlertPins() == 0 {
		t.Fatal("firing alert pinned no traces")
	}
	pinned := false
	for _, ent := range fr.Index() {
		if ent.ID == j.ID() && ent.AlertPinned {
			pinned = true
		}
	}
	if !pinned {
		t.Fatal("drift job's index entry is not alert-pinned")
	}

	// The alerts view agrees with the timeline.
	var firing *slo.Alert
	for _, a := range sloEng.Alerts() {
		if a.State == slo.StateFiring && a.Policy == "fast" {
			a := a
			firing = &a
		}
	}
	if firing == nil {
		t.Fatal("alerts view shows no firing fast policy")
	}
	if len(firing.TraceIDs) == 0 {
		t.Fatal("alerts view dropped the correlated trace ids")
	}

	// Quiesce the engine before touching the journal: the worker's
	// post-job drift check journals its recalibration asynchronously,
	// and Close is idempotent so the Cleanup close stays a no-op.
	closeCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := e.Close(closeCtx); err != nil {
		t.Fatalf("drain before replay: %v", err)
	}

	// Offline replay: feed the journal's observations through a fresh
	// engine and require the identical timeline — byte-for-byte.
	replayed, err := slo.New(slo.Config{SLOs: tightGateSLO()})
	if err != nil {
		t.Fatal(err)
	}
	_, replaySub := replayed.Subscribe()
	dec := json.NewDecoder(&journal)
	for {
		var r evlog.Record
		if err := dec.Decode(&r); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		if r.Component != slo.Component || r.Event != slo.ObserveEvent {
			continue
		}
		var obs slo.Observation
		if err := json.Unmarshal(r.Data, &obs); err != nil {
			t.Fatal(err)
		}
		replayed.Observe(obs)
	}
	liveJSON, err := json.Marshal(timeline)
	if err != nil {
		t.Fatal(err)
	}
	replayJSON, err := json.Marshal(drainTransitions(replaySub))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(liveJSON, replayJSON) {
		t.Fatalf("replayed timeline diverged from live\nlive:   %s\nreplay: %s", liveJSON, replayJSON)
	}
}

// TestEngineJournalsOperationalEvents checks the evlog wiring at the
// engine's boundaries: a retried job leaves a correlated job.retry
// record, and the SLO journal carries one observation per terminal
// job.
func TestEngineJournalsOperationalEvents(t *testing.T) {
	calls := 0
	Register("test-retry-log", func(ctx context.Context, env *Env, params json.RawMessage) (any, error) {
		calls++
		if calls == 1 {
			return nil, errors.New("transient wobble")
		}
		return "ok", nil
	})
	log := evlog.New(evlog.Config{})
	clk := newSLOClock()
	sloEng, err := slo.New(slo.Config{SLOs: tightGateSLO(), Log: log, Clock: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t, Config{Workers: 1, SLO: sloEng, Log: log})

	j := mustSubmit(t, e, JobSpec{Type: "test-retry-log", RequestID: "req-retry", Attempts: 2})
	snap := waitJob(t, j)
	if snap.Status != StatusDone {
		t.Fatalf("retried job: %s (%s)", snap.Status, snap.Error)
	}

	var retry, observe bool
	for _, r := range log.Recent() {
		switch {
		case r.Component == "engine" && r.Event == "job.retry":
			if r.JobID != j.ID() || r.RequestID != "req-retry" {
				t.Fatalf("retry record lost correlation: %+v", r)
			}
			if r.Level != evlog.Warn || r.Fields.Get("reason") == "" {
				t.Fatalf("retry record malformed: %+v", r)
			}
			retry = true
		case r.Component == slo.Component && r.Event == slo.ObserveEvent && r.JobID == j.ID():
			observe = true
		}
	}
	if !retry {
		t.Fatal("no job.retry record journaled")
	}
	if !observe {
		t.Fatal("no slo.observe record journaled for the terminal job")
	}
}

// drainTransitions returns the transitions waiting on a subscription.
func drainTransitions(sub <-chan slo.Transition) []slo.Transition {
	var out []slo.Transition
	for {
		select {
		case tr, ok := <-sub:
			if !ok {
				return out
			}
			out = append(out, tr)
		default:
			return out
		}
	}
}
