// Package flightrec is the serving path's flight recorder: a per-job
// trace scope layer with tail-based sampling.
//
// The paper's machines compute *in* timing behavior, so when a served
// job returns a wrong answer the only real evidence is the precise
// sequence of timed reads, speculative windows and calibrations that
// produced it — evidence a global -trace-out stream buries across all
// workers and jobs. Here every engine job runs against its own bounded
// event buffer (a Capture), fed from its worker machine's trace stream
// through a per-worker Tap. When the job finishes, the Recorder decides
// whether the capture is worth keeping:
//
//   - always, when the job errored, its redundant attempts disagreed,
//     any attempt was retried, the worker's health monitor holds a
//     latched drift verdict, or the latency sits above a configurable
//     quantile of the job type's history (tail-based sampling: the
//     decision uses information that only exists after the job ran);
//   - otherwise probabilistically, hashed from the job id so the head
//     sampling decision is deterministic and replayable.
//
// Kept traces live in a bounded LRU — except error traces, which are
// pinned in their own ring of the last K errors so a burst of healthy
// traffic can never evict the evidence of the most recent failures.
// Captures are seeded with the health monitor's drift-state checkpoint
// (health.Monitor.StateEvent), which makes each recording
// self-contained: replaying it offline reproduces the live drift
// verdict even though it holds only one job's reads.
package flightrec

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"uwm/internal/health"
	"uwm/internal/metrics"
	"uwm/internal/trace"
)

// Sampling decision reasons. The first six keep a trace; ReasonSampledOut
// is the only dropping decision.
const (
	ReasonError        = "error"        // job finished failed or canceled
	ReasonDisagreement = "disagreement" // redundant attempts produced conflicting results
	ReasonRetry        = "retry"        // at least one attempt errored before a result
	ReasonDrift        = "drift"        // the worker's drift verdict was latched at completion
	ReasonSlow         = "slow"         // latency above the type's keep quantile
	ReasonHead         = "head"         // won the probabilistic head sample
	ReasonSampledOut   = "sampled-out"  // healthy, fast, and lost the head sample
)

// keepReasons lists every reason in decision-priority order (dropping
// reason excluded); the metrics pre-registration iterates it.
var keepReasons = []string{
	ReasonError, ReasonDisagreement, ReasonRetry, ReasonDrift, ReasonSlow, ReasonHead,
}

// Metric series exported by the recorder.
const (
	MetricDecisions     = "uwm_flightrec_decisions_total"
	MetricKeptTraces    = "uwm_flightrec_kept_traces"
	MetricPinnedErrors  = "uwm_flightrec_pinned_errors"
	MetricCapacity      = "uwm_flightrec_capacity"
	MetricEvictions     = "uwm_flightrec_evictions_total"
	MetricDroppedEvents = "uwm_trace_dropped_events_total"
	MetricPostmortems   = "uwm_flightrec_postmortem_dumps_total"
	MetricAlertPinned   = "uwm_flightrec_alert_pinned_traces"
)

// Config tunes a Recorder. The zero value selects the defaults below.
type Config struct {
	// MaxKept bounds the LRU of kept non-error traces (default 64).
	MaxKept int
	// ErrorRing bounds the pinned ring of error traces. Error traces are
	// only ever evicted by newer errors, never by healthy traffic.
	// Default 16.
	ErrorRing int
	// MaxEventsPerTrace bounds each job's capture buffer; past it the
	// oldest events are overwritten (the newest tail is the interesting
	// part when a gate misfires) and the overwrites are counted as
	// dropped events. Default 4096; negative means unlimited.
	MaxEventsPerTrace int
	// HeadRate is the probability a healthy trace is kept, decided by
	// hashing the job id so the choice is deterministic. 0 (the zero
	// value) keeps no healthy traces; 1 keeps everything.
	HeadRate float64
	// PostmortemDir, when set, is where Postmortem() and panicking
	// workers dump the kept traces.
	PostmortemDir string
	// Metrics, when non-nil, receives the recorder's instruments.
	Metrics *metrics.Registry
}

func (c Config) withDefaults() Config {
	if c.MaxKept <= 0 {
		c.MaxKept = 64
	}
	if c.ErrorRing <= 0 {
		c.ErrorRing = 16
	}
	switch {
	case c.MaxEventsPerTrace == 0:
		c.MaxEventsPerTrace = 4096
	case c.MaxEventsPerTrace < 0:
		c.MaxEventsPerTrace = 0 // trace.NewRecorder: unlimited
	}
	return c
}

// Meta identifies the job a capture records.
type Meta struct {
	JobID     string
	RequestID string
	Type      string
}

// Capture is one job's private event buffer. It is owned by a single
// worker goroutine between Begin and Finish and must not be shared.
type Capture struct {
	meta Meta
	seed []trace.Event
	rec  *trace.Recorder
}

// Emit implements trace.Sink: events land in the capture's bounded
// ring buffer.
func (c *Capture) Emit(e trace.Event) { c.rec.Record(e) }

// Seed records an event ahead of the ring buffer, exempt from
// truncation. The health checkpoint goes here: a long job may overflow
// the ring and lose its oldest reads, but the checkpoint that makes the
// recording replayable must never be the thing overwritten.
func (c *Capture) Seed(e trace.Event) { c.seed = append(c.seed, e) }

// Tap is the per-worker switchpoint between a machine's trace stream
// and the current job's capture. The owning worker goroutine calls Set
// around each job; the atomic pointer makes concurrent Enabled checks
// (from trace.Tee fan-outs) safe.
type Tap struct {
	cur atomic.Pointer[Capture]
}

// NewTap returns an empty tap.
func NewTap() *Tap { return &Tap{} }

// Set installs (or, with nil, removes) the active capture.
func (t *Tap) Set(c *Capture) {
	if t != nil {
		t.cur.Store(c)
	}
}

// Emit implements trace.Sink, forwarding to the active capture.
func (t *Tap) Emit(e trace.Event) {
	if c := t.cur.Load(); c != nil {
		c.rec.Record(e)
	}
}

// Enabled reports whether a capture is active, so machines keep their
// zero-cost elision when no job is being recorded and no other sink is
// live.
func (t *Tap) Enabled() bool { return t != nil && t.cur.Load() != nil }

// Outcome is what the engine knows about a job only after it ran — the
// input to the tail-based sampling decision.
type Outcome struct {
	// Status is the job's terminal state ("done", "failed", "canceled").
	Status string
	// Error is the failure message for non-done jobs.
	Error string
	// Retries counts attempts that errored before a result.
	Retries int
	// Disagreement reports that redundant attempts produced more than
	// one distinct result.
	Disagreement bool
	// Drifting reports the worker's latched drift verdict at completion.
	Drifting bool
	// Latency is the job's execution wall time.
	Latency time.Duration
	// Verdict, when non-nil, is the worker monitor's drift verdict
	// snapshot at completion; it is stored on the index entry so a
	// replayed trace can be checked against the live verdict.
	Verdict *health.Verdict
}

// Decision is the sampling outcome for one finished capture.
type Decision struct {
	Kept   bool   `json:"kept"`
	Reason string `json:"reason"`
	// Pinned marks the trace as living in the error ring.
	Pinned bool `json:"pinned,omitempty"`
}

// Entry is one line of the recorder's index: the job's identity, its
// sampling decision, and enough of the outcome to triage without
// downloading the trace.
type Entry struct {
	Seq       uint64 `json:"seq"`
	ID        string `json:"id"`
	RequestID string `json:"request_id,omitempty"`
	Type      string `json:"type"`
	Status    string `json:"status"`
	Error     string `json:"error,omitempty"`
	Kept      bool   `json:"kept"`
	Reason    string `json:"reason"`
	Pinned    bool   `json:"pinned,omitempty"`
	// AlertPinned marks a trace currently held against eviction by a
	// firing SLO alert (reported on index listings).
	AlertPinned    bool            `json:"alert_pinned,omitempty"`
	Events         int             `json:"events"`
	DroppedEvents  int             `json:"dropped_events,omitempty"`
	Retries        int             `json:"retries,omitempty"`
	Disagreement   bool            `json:"disagreement,omitempty"`
	Drifting       bool            `json:"drifting,omitempty"`
	LatencySeconds float64         `json:"latency_seconds"`
	FinishedAt     time.Time       `json:"finished_at"`
	Verdict        *health.Verdict `json:"verdict,omitempty"`
}

// KeptTrace pairs an index entry with the full event recording.
type KeptTrace struct {
	Entry  Entry         `json:"entry"`
	Events []trace.Event `json:"-"`
}

// latencyBuckets are the per-type latency history's bucket edges,
// shared with the engine's job latency histogram.
var latencyBuckets = metrics.JobSecondsBuckets()

// Recorder is the flight recorder. All methods are safe for concurrent
// use: workers Finish captures while HTTP handlers read the index,
// fetch traces and hold SSE subscriptions.
type Recorder struct {
	cfg Config

	mu      sync.Mutex
	seq     uint64
	kept    []*KeptTrace          // healthy LRU, oldest first
	errs    []*KeptTrace          // pinned error ring, oldest first
	byID    map[string]*KeptTrace // job id and request id → trace
	pins    map[string]int        // job id → alert pin refcount
	typeLat map[string]*metrics.Histogram
	subs    map[int]chan Entry
	subSeq  int

	// Instruments are pre-created at New so Finish never touches the
	// registry lock while holding mu (GaugeFunc collectors run under the
	// registry lock and take mu).
	decisionCtr map[string]*metrics.Counter
	evictKept   *metrics.Counter
	evictErrs   *metrics.Counter
	droppedCtr  *metrics.Counter
	postmortems *metrics.Counter
}

// New builds a Recorder and registers its instruments.
func New(cfg Config) *Recorder {
	r := &Recorder{
		cfg:     cfg.withDefaults(),
		byID:    make(map[string]*KeptTrace),
		pins:    make(map[string]int),
		typeLat: make(map[string]*metrics.Histogram),
		subs:    make(map[int]chan Entry),
	}
	reg := r.cfg.Metrics
	r.decisionCtr = make(map[string]*metrics.Counter, len(keepReasons)+1)
	for _, reason := range keepReasons {
		r.decisionCtr[reason] = reg.Counter(MetricDecisions,
			"tail-based sampling decisions by outcome",
			metrics.L("decision", "kept"), metrics.L("reason", reason))
	}
	r.decisionCtr[ReasonSampledOut] = reg.Counter(MetricDecisions,
		"tail-based sampling decisions by outcome",
		metrics.L("decision", "dropped"), metrics.L("reason", ReasonSampledOut))
	r.evictKept = reg.Counter(MetricEvictions,
		"kept traces evicted, by ring", metrics.L("ring", "kept"))
	r.evictErrs = reg.Counter(MetricEvictions,
		"kept traces evicted, by ring", metrics.L("ring", "errors"))
	r.droppedCtr = reg.Counter(MetricDroppedEvents,
		"events overwritten in bounded trace ring buffers")
	r.postmortems = reg.Counter(MetricPostmortems,
		"post-mortem dumps written (drain or worker panic)")
	reg.Gauge(MetricCapacity, "flight recorder capacity, by ring",
		metrics.L("ring", "kept")).Set(float64(r.cfg.MaxKept))
	reg.Gauge(MetricCapacity, "flight recorder capacity, by ring",
		metrics.L("ring", "errors")).Set(float64(r.cfg.ErrorRing))
	reg.GaugeFunc(MetricKeptTraces, "healthy traces currently retained in the LRU",
		func() float64 {
			r.mu.Lock()
			defer r.mu.Unlock()
			return float64(len(r.kept))
		})
	reg.GaugeFunc(MetricPinnedErrors, "error traces currently pinned in the ring",
		func() float64 {
			r.mu.Lock()
			defer r.mu.Unlock()
			return float64(len(r.errs))
		})
	reg.GaugeFunc(MetricAlertPinned, "traces currently pinned by firing SLO alerts",
		func() float64 {
			r.mu.Lock()
			defer r.mu.Unlock()
			return float64(len(r.pins))
		})
	return r
}

// Config returns the recorder's effective (default-filled)
// configuration.
func (r *Recorder) Config() Config { return r.cfg }

// Begin opens a capture for one job. The capture is not visible to
// readers until Finish decides its fate.
func (r *Recorder) Begin(meta Meta) *Capture {
	if r == nil {
		return nil
	}
	return &Capture{meta: meta, rec: trace.NewRecorder(r.cfg.MaxEventsPerTrace)}
}

// Finish applies the tail-based sampling policy to a finished capture
// and, when it is kept, publishes it to the index. Every decision —
// kept or dropped — is broadcast to live-tail subscribers.
func (r *Recorder) Finish(c *Capture, o Outcome) Decision {
	if r == nil || c == nil {
		return Decision{}
	}
	events := make([]trace.Event, 0, len(c.seed)+len(c.rec.Events()))
	events = append(events, c.seed...)
	events = append(events, c.rec.Events()...)
	latSec := o.Latency.Seconds()

	r.mu.Lock()
	d := r.decideLocked(c.meta, o, latSec)
	r.observeLatencyLocked(c.meta.Type, latSec)
	r.seq++
	entry := Entry{
		Seq:            r.seq,
		ID:             c.meta.JobID,
		RequestID:      c.meta.RequestID,
		Type:           c.meta.Type,
		Status:         o.Status,
		Error:          o.Error,
		Kept:           d.Kept,
		Reason:         d.Reason,
		Pinned:         d.Pinned,
		Events:         len(events),
		DroppedEvents:  c.rec.Dropped(),
		Retries:        o.Retries,
		Disagreement:   o.Disagreement,
		Drifting:       o.Drifting,
		LatencySeconds: latSec,
		FinishedAt:     time.Now().UTC(),
		Verdict:        o.Verdict,
	}
	r.decisionCtr[d.Reason].Inc()
	r.droppedCtr.Add(uint64(c.rec.Dropped()))
	if d.Kept {
		r.insertLocked(&KeptTrace{Entry: entry, Events: events})
	}
	for _, ch := range r.subs {
		select {
		case ch <- entry:
		default: // a slow tail client misses a decision rather than stalling workers
		}
	}
	r.mu.Unlock()
	return d
}

// decideLocked runs the sampling policy in priority order.
func (r *Recorder) decideLocked(meta Meta, o Outcome, latSec float64) Decision {
	switch {
	case o.Status != "" && o.Status != "done":
		return Decision{Kept: true, Reason: ReasonError, Pinned: true}
	case o.Disagreement:
		return Decision{Kept: true, Reason: ReasonDisagreement}
	case o.Retries > 0:
		return Decision{Kept: true, Reason: ReasonRetry}
	case o.Drifting:
		return Decision{Kept: true, Reason: ReasonDrift}
	case r.slowLocked(meta.Type, latSec):
		return Decision{Kept: true, Reason: ReasonSlow}
	case headKeep(meta.JobID, r.cfg.HeadRate):
		return Decision{Kept: true, Reason: ReasonHead}
	default:
		return Decision{Kept: false, Reason: ReasonSampledOut}
	}
}

// The slow rule: a job is "slow" — and its trace kept — when its
// latency reaches latencyQuantile of the job type's history, once that
// history holds latencyMinSamples jobs (a quantile of three samples is
// noise).
const (
	latencyQuantile   = 0.99
	latencyMinSamples = 32
)

// slowLocked reports whether latSec sits above the keep quantile of the
// job type's latency history. The quantile estimate is rounded up to
// its bucket edge first: an interpolated p99 of a uniform-latency
// stream lands fractionally *below* the stream's own value, and without
// the round-up every healthy job of such a type would flag as slow.
func (r *Recorder) slowLocked(jobType string, latSec float64) bool {
	h := r.typeLat[jobType]
	if h == nil || h.Count() < latencyMinSamples {
		return false
	}
	return latSec > bucketCeil(h.Quantile(latencyQuantile))
}

// bucketCeil rounds a latency up to the bucket edge containing it — the
// finest distinction the bucketed history can actually support.
func bucketCeil(x float64) float64 {
	for _, b := range latencyBuckets {
		if x <= b {
			return b
		}
	}
	return latencyBuckets[len(latencyBuckets)-1]
}

// observeLatencyLocked folds the job's latency into its type's history
// after the decision, so a job is judged against its predecessors, not
// itself.
func (r *Recorder) observeLatencyLocked(jobType string, latSec float64) {
	h := r.typeLat[jobType]
	if h == nil {
		h = metrics.NewHistogram(latencyBuckets)
		r.typeLat[jobType] = h
	}
	h.Observe(latSec)
}

// headKeep hashes the job id into [0,1) and keeps it under rate — a
// deterministic coin so the same submission stream samples identically
// on every run.
func headKeep(id string, rate float64) bool {
	if rate >= 1 {
		return true
	}
	if rate <= 0 {
		return false
	}
	h := fnv.New64a()
	h.Write([]byte(id))
	return float64(h.Sum64()>>11)/(1<<53) < rate
}

// insertLocked files a kept trace into its ring and indexes it by job
// and request id. Rings evict their oldest *unpinned* trace: a trace a
// firing alert pinned is the evidence the alert names, so the ring is
// allowed to run over capacity until the alert resolves rather than
// discard it.
func (r *Recorder) insertLocked(kt *KeptTrace) {
	if kt.Entry.Pinned {
		r.errs = append(r.errs, kt)
		if len(r.errs) > r.cfg.ErrorRing {
			if r.evictOldestUnpinnedLocked(&r.errs) {
				r.evictErrs.Inc()
			}
		}
	} else {
		r.kept = append(r.kept, kt)
		if len(r.kept) > r.cfg.MaxKept {
			if r.evictOldestUnpinnedLocked(&r.kept) {
				r.evictKept.Inc()
			}
		}
	}
	r.byID[kt.Entry.ID] = kt
	if kt.Entry.RequestID != "" {
		r.byID[kt.Entry.RequestID] = kt
	}
}

// evictOldestUnpinnedLocked removes the oldest trace in ring without an
// alert pin; it reports false — and leaves the ring over capacity —
// when every resident trace is pinned.
func (r *Recorder) evictOldestUnpinnedLocked(ring *[]*KeptTrace) bool {
	for i, kt := range *ring {
		if r.pins[kt.Entry.ID] > 0 {
			continue
		}
		r.dropLocked(kt)
		*ring = append((*ring)[:i], (*ring)[i+1:]...)
		return true
	}
	return false
}

// Pin holds the kept trace for a job or request id against eviction —
// the flight recorder's side of a firing SLO alert. Pins are
// refcounted (two alerts naming the same trace both hold it) and
// keyed by the canonical job id, so Pin and Unpin may use job and
// request ids interchangeably. It reports whether a kept trace existed
// to pin.
func (r *Recorder) Pin(id string) bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	kt, ok := r.byID[id]
	if !ok {
		return false
	}
	r.pins[kt.Entry.ID]++
	return true
}

// Unpin releases one Pin reference; at zero the trace becomes evictable
// again (it is not removed eagerly — normal ring pressure reclaims it).
func (r *Recorder) Unpin(id string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	key := id
	if kt, ok := r.byID[id]; ok {
		key = kt.Entry.ID
	}
	if n := r.pins[key]; n > 1 {
		r.pins[key] = n - 1
	} else if n == 1 {
		delete(r.pins, key)
	}
}

// AlertPins reports how many traces are currently alert-pinned.
func (r *Recorder) AlertPins() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.pins)
}

// dropLocked removes an evicted trace's id mappings (unless a newer
// trace already claimed the key).
func (r *Recorder) dropLocked(kt *KeptTrace) {
	if r.byID[kt.Entry.ID] == kt {
		delete(r.byID, kt.Entry.ID)
	}
	if rid := kt.Entry.RequestID; rid != "" && r.byID[rid] == kt {
		delete(r.byID, rid)
	}
}

// Get returns the kept trace for a job or request id. The returned
// trace is immutable; callers may read it without locking.
func (r *Recorder) Get(id string) (*KeptTrace, bool) {
	if r == nil {
		return nil, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	kt, ok := r.byID[id]
	return kt, ok
}

// Index returns every kept trace's entry, newest first. Pinned error
// traces and LRU traces are merged into one timeline.
func (r *Recorder) Index() []Entry {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]Entry, 0, len(r.kept)+len(r.errs))
	for _, kt := range r.kept {
		e := kt.Entry
		e.AlertPinned = r.pins[e.ID] > 0
		out = append(out, e)
	}
	for _, kt := range r.errs {
		e := kt.Entry
		e.AlertPinned = r.pins[e.ID] > 0
		out = append(out, e)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Seq > out[j].Seq })
	return out
}

// Subscribe attaches a live-tail listener: every Finish decision is
// delivered (best-effort; a full buffer drops, never blocks). The
// cancel function detaches and closes the channel; it is safe to call
// twice.
func (r *Recorder) Subscribe() (<-chan Entry, func()) {
	ch := make(chan Entry, 16)
	r.mu.Lock()
	r.subSeq++
	id := r.subSeq
	r.subs[id] = ch
	r.mu.Unlock()
	cancel := func() {
		r.mu.Lock()
		if c, ok := r.subs[id]; ok {
			delete(r.subs, id)
			close(c)
		}
		r.mu.Unlock()
	}
	return ch, cancel
}

// Subscribers reports how many live-tail listeners are attached.
func (r *Recorder) Subscribers() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.subs)
}

// Dump writes every kept trace to dir — one <job-id>.jsonl per trace,
// in the exact format a -trace-out run produces, plus an index.json of
// the entries — and returns how many traces it wrote. This is the
// post-mortem artifact a draining server or a panicking worker leaves
// behind.
func (r *Recorder) Dump(dir string) (int, error) {
	if r == nil {
		return 0, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, fmt.Errorf("flightrec: %w", err)
	}
	r.mu.Lock()
	traces := make([]*KeptTrace, 0, len(r.kept)+len(r.errs))
	traces = append(traces, r.kept...)
	traces = append(traces, r.errs...)
	r.mu.Unlock()

	entries := make([]Entry, 0, len(traces))
	for _, kt := range traces {
		f, err := os.Create(filepath.Join(dir, kt.Entry.ID+".jsonl"))
		if err != nil {
			return len(entries), fmt.Errorf("flightrec: %w", err)
		}
		werr := trace.EncodeJSONL(f, kt.Events)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return len(entries), fmt.Errorf("flightrec: dumping %s: %w", kt.Entry.ID, werr)
		}
		entries = append(entries, kt.Entry)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Seq > entries[j].Seq })
	b, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return len(entries), fmt.Errorf("flightrec: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "index.json"), append(b, '\n'), 0o644); err != nil {
		return len(entries), fmt.Errorf("flightrec: %w", err)
	}
	r.postmortems.Inc()
	return len(entries), nil
}

// Postmortem dumps the recorder to the configured PostmortemDir — the
// reaction to a worker panic. Without a directory it is a no-op; the
// error, if any, is returned for the caller to log (a failing dump must
// not take the pool down with it).
func (r *Recorder) Postmortem() (int, error) {
	if r == nil || r.cfg.PostmortemDir == "" {
		return 0, nil
	}
	return r.Dump(r.cfg.PostmortemDir)
}
