package slo

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"uwm/internal/evlog"
	"uwm/internal/metrics"
)

// vclock is a deterministic virtual clock advancing a fixed step per
// Now call.
type vclock struct {
	now  time.Time
	step time.Duration
}

func (c *vclock) Now() time.Time {
	t := c.now
	c.now = c.now.Add(c.step)
	return t
}

func epoch() time.Time { return time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC) }

func availDef(minEvents int) Definition {
	return Definition{
		Name: "avail", Kind: KindAvailability, Objective: 0.99, MinEvents: minEvents,
		Policies: []BurnPolicy{{
			Name: "fast", Severity: SeverityPage,
			ShortWindow: Duration(5 * time.Minute), LongWindow: Duration(time.Hour),
			BurnRate: 14.4, ResolveRatio: 0.9,
		}},
	}
}

func obsAt(at time.Time, status string) Observation {
	return Observation{At: at, Type: "sha1", Status: status, JobID: "j", TraceID: "j"}
}

func TestSeriesWindowing(t *testing.T) {
	s := newSeries(time.Minute, time.Hour)
	base := epoch()
	s.add(base, 10, 0)
	s.add(base.Add(30*time.Second), 0, 5)
	s.add(base.Add(10*time.Minute), 20, 1)

	good, bad := s.window(base.Add(10*time.Minute), time.Minute)
	if good != 20 || bad != 1 {
		t.Fatalf("1m window = %v/%v, want 20/1", good, bad)
	}
	good, bad = s.window(base.Add(10*time.Minute), time.Hour)
	if good != 30 || bad != 6 {
		t.Fatalf("1h window = %v/%v, want 30/6", good, bad)
	}
	// Ancient observations fall off the ring.
	s.add(base.Add(3*time.Hour), 1, 0)
	good, bad = s.window(base.Add(3*time.Hour), time.Hour)
	if good != 1 || bad != 0 {
		t.Fatalf("post-advance window = %v/%v, want 1/0", good, bad)
	}
}

func TestValidation(t *testing.T) {
	bad := []Definition{
		{Name: "", Kind: KindAvailability, Objective: 0.99},
		{Name: "x", Kind: KindAvailability, Objective: 1.5},
		{Name: "x", Kind: "bogus", Objective: 0.9},
		{Name: "x", Kind: KindLatency, Objective: 0.9}, // missing threshold
		{Name: "x", Kind: KindAvailability, Objective: 0.9,
			Policies: []BurnPolicy{{Name: "p", ShortWindow: Duration(time.Hour),
				LongWindow: Duration(time.Minute), BurnRate: 1}}},
	}
	for i, d := range bad {
		if _, err := New(Config{SLOs: []Definition{d}}); err == nil {
			t.Fatalf("definition %d accepted, want error", i)
		}
	}
	if _, err := New(Config{SLOs: []Definition{availDef(1), availDef(1)}}); err == nil {
		t.Fatal("duplicate names accepted")
	}
	if _, err := New(Config{}); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
}

func TestParseDefinitions(t *testing.T) {
	arr := []byte(`[{"name":"a","kind":"availability","objective":0.99}]`)
	defs, err := ParseDefinitions(arr)
	if err != nil || len(defs) != 1 || defs[0].Name != "a" {
		t.Fatalf("array form: %v %+v", err, defs)
	}
	obj := []byte(`{"slos":[{"name":"b","kind":"latency","objective":0.9,"latency_threshold":"250ms"}]}`)
	defs, err = ParseDefinitions(obj)
	if err != nil || len(defs) != 1 || defs[0].LatencyThreshold.D() != 250*time.Millisecond {
		t.Fatalf("object form: %v %+v", err, defs)
	}
	if _, err := ParseDefinitions([]byte(`"nope"`)); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestDurationRoundTrip(t *testing.T) {
	b, err := json.Marshal(Duration(90 * time.Second))
	if err != nil || string(b) != `"1m30s"` {
		t.Fatalf("marshal = %s, %v", b, err)
	}
	var d Duration
	if err := json.Unmarshal([]byte(`"6h"`), &d); err != nil || d.D() != 6*time.Hour {
		t.Fatalf("unmarshal string: %v %v", d, err)
	}
	if err := json.Unmarshal([]byte(`1000000000`), &d); err != nil || d.D() != time.Second {
		t.Fatalf("unmarshal number: %v %v", d, err)
	}
}

// pinRec records Pin/Unpin calls.
type pinRec struct {
	pinned   map[string]int
	unpinned []string
	exists   map[string]bool
}

func (p *pinRec) Pin(id string) bool {
	if p.pinned == nil {
		p.pinned = make(map[string]int)
	}
	if p.exists != nil && !p.exists[id] {
		return false
	}
	p.pinned[id]++
	return true
}
func (p *pinRec) Unpin(id string) { p.unpinned = append(p.unpinned, id) }

func TestFireResolveHysteresisAndPinning(t *testing.T) {
	clk := &vclock{now: epoch(), step: time.Second}
	pin := &pinRec{}
	reg := metrics.NewRegistry()
	eng, err := New(Config{SLOs: []Definition{availDef(10)}, Clock: clk.Now,
		Pinner: pin, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	_, sub := eng.Subscribe()

	// 10 good jobs: no alert, burn 0.
	for i := 0; i < 10; i++ {
		eng.Observe(obsAt(clk.Now(), "done"))
	}
	if n := eng.Firing(); n != 0 {
		t.Fatalf("firing after healthy traffic: %d", n)
	}

	// 5 failures: the burn crosses 14.4 at the second one (2 bad of 12
	// ≥ MinEvents → burn 16.7) and the alert fires once, capturing the
	// burner ring as it stood at fire time.
	for i := 0; i < 5; i++ {
		o := obsAt(clk.Now(), "failed")
		o.JobID = "bad-" + string(rune('a'+i))
		o.TraceID = o.JobID
		eng.Observe(o)
	}
	alerts := eng.Alerts()
	if len(alerts) != 1 || alerts[0].State != StateFiring {
		t.Fatalf("alerts = %+v, want one firing", alerts)
	}
	if len(alerts[0].TraceIDs) == 0 || alerts[0].TraceIDs[0] != "bad-a" {
		t.Fatalf("firing alert trace ids = %v", alerts[0].TraceIDs)
	}
	wantPinned := len(alerts[0].TraceIDs)
	if len(pin.pinned) != wantPinned {
		t.Fatalf("pinned %d traces, want %d: %v", len(pin.pinned), wantPinned, pin.pinned)
	}
	tl := drain(sub)
	if len(tl) != 1 || tl[0].State != StateFiring || tl[0].Severity != SeverityPage {
		t.Fatalf("timeline = %+v", tl)
	}
	if v, ok := reg.Value(MetricFiring, metrics.L("slo", "avail"), metrics.L("policy", "fast")); !ok || v != 1 {
		t.Fatalf("firing gauge = %v (ok=%v)", v, ok)
	}

	// Canceled jobs are excluded from the ledger entirely.
	eng.Observe(obsAt(clk.Now(), "canceled"))
	st := eng.Status(clk.now)
	if st[0].GoodEvents+st[0].BadEvents != 15 {
		t.Fatalf("canceled job entered the ledger: %+v", st[0])
	}

	// Healthy traffic inside the same windows can't resolve (the bad
	// events are still in-window)...
	for i := 0; i < 20; i++ {
		eng.Observe(obsAt(clk.Now(), "done"))
	}
	if eng.Firing() != 1 {
		t.Fatal("alert resolved while burn still above resolve threshold")
	}
	// ...but after both windows slide past the failures, the next
	// observation resolves it and unpins the traces.
	clk.now = clk.now.Add(2 * time.Hour)
	for i := 0; i < 10; i++ {
		eng.Observe(obsAt(clk.Now(), "done"))
	}
	if eng.Firing() != 0 {
		t.Fatalf("alert still firing after windows cleared; status %+v", eng.Status(clk.now))
	}
	if len(pin.unpinned) != wantPinned {
		t.Fatalf("unpinned %d, want %d: %v", len(pin.unpinned), wantPinned, pin.unpinned)
	}
	tl = append(tl, drain(sub)...)
	if len(tl) != 2 || tl[1].State != StateResolved {
		t.Fatalf("timeline after resolve = %+v", tl)
	}
}

func TestMinEventsSuppressesIdleNoise(t *testing.T) {
	clk := &vclock{now: epoch(), step: time.Second}
	eng, err := New(Config{SLOs: []Definition{availDef(10)}, Clock: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	// A lone failure is 100% bad but under MinEvents: no page.
	eng.Observe(obsAt(clk.Now(), "failed"))
	if eng.Firing() != 0 {
		t.Fatalf("paged on %d events", 1)
	}
}

func TestGateAccuracyClassification(t *testing.T) {
	def := Definition{Name: "gates", Kind: KindGateAccuracy, Objective: 0.99, MinEvents: 10,
		Policies: availDef(0).Policies}
	clk := &vclock{now: epoch(), step: time.Second}
	eng, err := New(Config{SLOs: []Definition{def}, Clock: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	// 8 healthy gate jobs, 16/16 correct.
	for i := 0; i < 8; i++ {
		eng.Observe(Observation{At: clk.Now(), Type: "gate", Status: "done",
			GateCorrect: 16, GateTotal: 16, TraceID: "ok"})
	}
	if eng.Firing() != 0 {
		t.Fatal("fired on perfect gates")
	}
	// One drifted job at 44% accuracy: 28 good, 36 bad of 164 total
	// ops → badFrac 0.22 → burn 22 ≥ 14.4.
	eng.Observe(Observation{At: clk.Now(), Type: "gate", Status: "failed",
		GateCorrect: 28, GateTotal: 64, JobID: "drift", TraceID: "drift"})
	alerts := eng.Alerts()
	if len(alerts) != 1 || alerts[0].State != StateFiring {
		t.Fatalf("alerts = %+v, want firing", alerts)
	}
	found := false
	for _, id := range alerts[0].TraceIDs {
		if id == "drift" {
			found = true
		}
	}
	if !found {
		t.Fatalf("drifted trace id missing from alert: %v", alerts[0].TraceIDs)
	}
	// A non-gate job must not touch the gate ledger.
	eng.Observe(obsAt(clk.Now(), "failed"))
	st := eng.Status(clk.now)
	if st[0].GoodEvents+st[0].BadEvents != 8*16+64 {
		t.Fatalf("non-gate observation entered the ledger: %+v", st[0])
	}
}

func TestJobTypeFilter(t *testing.T) {
	def := availDef(1)
	def.JobType = "sha1"
	clk := &vclock{now: epoch(), step: time.Second}
	eng, err := New(Config{SLOs: []Definition{def}, Clock: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	o := obsAt(clk.Now(), "failed")
	o.Type = "apt"
	eng.Observe(o)
	if st := eng.Status(clk.now); st[0].BadEvents != 0 {
		t.Fatalf("filtered job type entered ledger: %+v", st[0])
	}
}

func TestLatencyClassification(t *testing.T) {
	def := Definition{Name: "lat", Kind: KindLatency, Objective: 0.99, MinEvents: 5,
		LatencyThreshold: Duration(100 * time.Millisecond), Policies: availDef(0).Policies}
	clk := &vclock{now: epoch(), step: time.Second}
	eng, err := New(Config{SLOs: []Definition{def}, Clock: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		o := obsAt(clk.Now(), "done")
		o.LatencySeconds = 5.0 // way over threshold
		eng.Observe(o)
	}
	if eng.Firing() != 1 {
		t.Fatalf("slow jobs did not fire; status %+v", eng.Status(clk.now))
	}
	// Failed jobs don't count against latency (availability owns them).
	o := obsAt(clk.Now(), "failed")
	o.LatencySeconds = 99
	eng.Observe(o)
	if st := eng.Status(clk.now); st[0].GoodEvents+st[0].BadEvents != 5 {
		t.Fatalf("failed job entered latency ledger: %+v", st[0])
	}
}

func TestObserveJournalAndReplayByteForByte(t *testing.T) {
	var journal bytes.Buffer
	logClk := &vclock{now: epoch(), step: 0}
	logger := evlog.New(evlog.Config{W: &journal, Clock: logClk.Now})
	clk := &vclock{now: epoch(), step: time.Second}
	defs := []Definition{availDef(10)}
	live, err := New(Config{SLOs: defs, Clock: clk.Now, Log: logger, Pinner: &pinRec{}})
	if err != nil {
		t.Fatal(err)
	}
	_, liveSub := live.Subscribe()

	for i := 0; i < 10; i++ {
		live.Observe(obsAt(clk.Now(), "done"))
	}
	for i := 0; i < 5; i++ {
		o := obsAt(clk.Now(), "failed")
		o.JobID = "bad"
		o.TraceID = "bad"
		live.Observe(o)
	}
	clk.now = clk.now.Add(2 * time.Hour)
	for i := 0; i < 10; i++ {
		live.Observe(obsAt(clk.Now(), "done"))
	}
	liveTL := drain(liveSub)
	if len(liveTL) != 2 {
		t.Fatalf("live timeline = %+v, want fire+resolve", liveTL)
	}

	records := journal.Bytes()
	liveJSON, err := json.Marshal(liveTL)
	if err != nil {
		t.Fatal(err)
	}
	replayJSON, err := json.Marshal(replay(t, bytes.NewReader(records), defs))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(liveJSON, replayJSON) {
		t.Fatalf("replay diverged:\nlive:   %s\nreplay: %s", liveJSON, replayJSON)
	}
	// The journal also carries the transition records themselves.
	if fires := bytes.Count(records, []byte(`"event":"`+FireEvent+`"`)); fires != 1 {
		t.Fatalf("journal has %d fire records, want 1", fires)
	}
}

func TestSubscribeDeliversTransitions(t *testing.T) {
	clk := &vclock{now: epoch(), step: time.Second}
	eng, err := New(Config{SLOs: []Definition{availDef(5)}, Clock: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	id, ch := eng.Subscribe()
	for i := 0; i < 5; i++ {
		eng.Observe(obsAt(clk.Now(), "failed"))
	}
	select {
	case tr := <-ch:
		if tr.State != StateFiring {
			t.Fatalf("got %+v, want firing", tr)
		}
	default:
		t.Fatal("no transition delivered")
	}
	eng.Unsubscribe(id)
	if _, ok := <-ch; ok {
		t.Fatal("channel open after unsubscribe")
	}
	// Close closes remaining subscribers and drops later observations.
	_, ch2 := eng.Subscribe()
	eng.Close()
	if _, ok := <-ch2; ok {
		t.Fatal("channel open after Close")
	}
	eng.Observe(obsAt(clk.Now(), "failed")) // must not panic
}

func TestNilEngineIsSafe(t *testing.T) {
	var e *Engine
	e.Observe(Observation{})
	if e.Status(epoch()) != nil || e.Alerts() != nil || e.Firing() != 0 {
		t.Fatal("nil engine leaked state")
	}
	e.Close()
}
