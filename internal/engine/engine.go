// Package engine runs weird-machine jobs concurrently across a pool of
// workers, each pinning its own core.Machine.
//
// The paper's primitives are inherently noisy — gate accuracies sit
// below 100% with gate-dependent error rates (Tables 2, 5, 8) — and the
// paper recovers reliability through redundancy (§5's s/k/n scheme).
// The engine lifts that discussion one layer up: every job runs under a
// retry policy with majority voting over whole results, a bounded queue
// applies backpressure, and per-job context deadlines are enforced at
// gate boundaries, so a hung or hopeless job abandons its gate loop
// instead of wedging a worker.
//
// Reproducibility under parallelism is a design invariant, not an
// accident: all workers build byte-identical rigs (same seed, same
// construction order), each job derives a sub-seed from the engine
// seed and its submission index (noise.SubSeed), and the worker
// re-pins its machine's noise stream to that sub-seed before every
// attempt. With the default noise profile (see DefaultNoise) a pooled
// run therefore produces byte-identical per-job results to a serial
// run of the same submissions.
package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"uwm/internal/circopt"
	"uwm/internal/evlog"
	"uwm/internal/flightrec"
	"uwm/internal/health"
	"uwm/internal/metrics"
	"uwm/internal/noise"
	"uwm/internal/slo"
	"uwm/internal/trace"
)

// Sentinel errors returned by Submit.
var (
	// ErrQueueFull means the bounded queue rejected the job; callers
	// should back off and retry (an HTTP front end maps this to 429).
	ErrQueueFull = errors.New("engine: queue full")
	// ErrClosed means the engine is draining or closed.
	ErrClosed = errors.New("engine: closed")
)

// RetryPolicy turns the paper's redundancy discussion into a
// reliability knob: run up to Attempts redundant executions of a job,
// accept a result once Vote byte-identical copies of it exist. Retries
// run back to back: an attempt is a pure function of the rig and its
// attempt seed, so waiting after an errored one buys nothing.
type RetryPolicy struct {
	// Attempts is the maximum number of executions (default 1).
	Attempts int
	// Vote is the agreement count a result needs to win early
	// (default 1: first success is accepted). With Attempts 3 and
	// Vote 2, two agreeing executions settle the job.
	Vote int
}

func (p RetryPolicy) normalized() RetryPolicy {
	if p.Attempts < 1 {
		p.Attempts = 1
	}
	if p.Vote < 1 {
		p.Vote = 1
	}
	if p.Vote > p.Attempts {
		p.Vote = p.Attempts
	}
	return p
}

// DefaultNoise is the engine's noise profile: the paper's isolated-core
// calibration with the two history-coupled processes disabled. DRAM
// jitter draws once per cache miss and window jitter once per
// mispredicted branch — both counts depend on microarchitectural state
// left by earlier jobs, so under either process a job's noise stream
// would shift with scheduling and pooled runs could diverge from
// serial ones. The remaining processes (timer jitter, interrupt
// outliers, stray evictions and fills, training failures, TSX aborts
// and chain breaks) draw a fixed number of times per activation, which
// keeps per-job streams aligned while preserving the paper's error
// bands (TSX gates stay in the 0.92–0.99 accuracy range that makes
// vote-of-3 worth paying for). It is noise.Replayable, re-exported
// under the name engine callers have always used.
func DefaultNoise() noise.Config { return noise.Replayable() }

// Config parameterizes an Engine.
type Config struct {
	// Workers is the pool size; each worker pins one Machine
	// (default 1).
	Workers int
	// QueueDepth bounds the submission queue (default 64). A full
	// queue rejects Submit with ErrQueueFull — backpressure instead of
	// unbounded memory.
	QueueDepth int
	// Seed is the root seed every per-job sub-seed derives from
	// (default 2021, the repo's experiment seed).
	Seed uint64
	// Noise overrides the machines' noise model; nil selects
	// DefaultNoise(). Profiles with DRAM or window jitter enabled
	// still run, but forfeit the serial-equals-pooled guarantee.
	Noise *noise.Config
	// TrainIterations is the BP-WR training count (default 4 — the
	// accuracy-experiment setting, an order of magnitude cheaper than
	// the paper's heavy 100-iteration mistraining loops).
	TrainIterations int
	// Retry is the engine-wide retry/vote policy; JobSpec can raise it
	// per job.
	Retry RetryPolicy
	// DefaultTimeout bounds a job's execution when its spec does not
	// (default 60s).
	DefaultTimeout time.Duration
	// Metrics, when non-nil, receives the engine's instruments (queue
	// depth, in-flight gauge, per-type latency, retry/vote counters).
	Metrics *metrics.Registry
	// Sink, when non-nil, receives every worker machine's trace
	// events — including the per-job spans the engine brackets around
	// handler execution — serialized through one lock. With more than
	// one worker the spans of concurrent jobs interleave; profile with
	// Workers=1 when frame attribution matters.
	Sink trace.Sink
	// FlightRec, when non-nil, gives every job a private bounded trace
	// capture: each worker's machine is teed into a per-worker tap that
	// the worker points at the running job's capture, and at completion
	// the recorder's tail-based sampling decides whether the capture is
	// kept for retrieval. Captures are seeded with the worker monitor's
	// drift-state checkpoint so a kept trace replays to the live health
	// verdict on its own.
	FlightRec *flightrec.Recorder
	// SLO, when non-nil, receives one Observation per terminal job —
	// status, latency, and (for gate jobs) the per-op accuracy tally —
	// evaluated at the SLO engine's clock. Wire the same flight
	// recorder as its TracePinner so firing alerts hold their evidence.
	SLO *slo.Engine
	// Log, when non-nil, receives structured event records at the
	// engine's operational boundaries: retries, vote disagreements,
	// worker recalibrations and handler panics, each carrying the job
	// and request ids. Nil disables event logging (the nil Logger
	// no-ops).
	Log *evlog.Logger
}

func (c Config) normalized() Config {
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 64
	}
	if c.Seed == 0 {
		c.Seed = 2021
	}
	if c.Noise == nil {
		def := DefaultNoise()
		c.Noise = &def
	}
	if c.TrainIterations == 0 {
		c.TrainIterations = 4
	}
	c.Retry = c.Retry.normalized()
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	return c
}

// Metric series exported by the engine.
const (
	MetricJobs            = "uwm_engine_jobs_total"
	MetricRejected        = "uwm_engine_rejected_total"
	MetricRetries         = "uwm_engine_retries_total"
	MetricVotes           = "uwm_engine_votes_total"
	MetricDisagreements   = "uwm_engine_vote_disagreements_total"
	MetricRecalibrations  = "uwm_engine_recalibrations_total"
	MetricQueueLen        = "uwm_engine_queue_depth"
	MetricQueueCap        = "uwm_engine_queue_capacity"
	MetricInflight        = "uwm_engine_inflight_jobs"
	MetricWorkers         = "uwm_engine_workers"
	MetricHealthyWorkers  = "uwm_engine_healthy_workers"
	MetricDriftingWorkers = "uwm_engine_drifting_workers"
	MetricJobLatSec       = "uwm_engine_job_seconds"
)

// Retry reason labels on MetricRetries.
const (
	RetryTimeout  = "timeout"  // the attempt's error was a deadline expiry
	RetryError    = "error"    // the attempt errored for any other reason
	RetryMismatch = "mismatch" // a successful attempt disagreed with an earlier one
)

// jobSecondsBuckets is the job latency histogram's bucket layout, held
// once so registering the per-type histogram on each job allocates
// nothing.
var jobSecondsBuckets = metrics.JobSecondsBuckets()

// Engine is the concurrent weird-machine job executor.
type Engine struct {
	cfg   Config
	rigs  []*Rig
	queue chan *Job

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // terminal-job eviction order
	closed   bool
	seq      atomic.Uint64
	inflight atomic.Int64

	hardStop context.CancelFunc
	baseCtx  context.Context
	wg       sync.WaitGroup

	rejected *metrics.Counter
	plans    *circopt.Cache
	flight   *flightrec.Recorder
	slos     *slo.Engine
	log      *evlog.Logger

	completions rateTracker
}

// rateTracker estimates the pool's recent job-completion rate from a
// ring of completion timestamps. The serving layer divides the queue
// depth by this rate to derive an honest Retry-After hint on 429 —
// "come back when the backlog you are behind has drained", instead of
// a hardcoded constant.
type rateTracker struct {
	mu    sync.Mutex
	times [64]time.Time
	next  int
	n     int
}

// record notes one completion.
func (rt *rateTracker) record(t time.Time) {
	rt.mu.Lock()
	rt.times[rt.next] = t
	rt.next = (rt.next + 1) % len(rt.times)
	if rt.n < len(rt.times) {
		rt.n++
	}
	rt.mu.Unlock()
}

// rate returns completions per second over the window from the oldest
// retained completion to now. Measuring to now (not to the newest
// completion) makes the estimate decay while the pool sits idle or
// wedged: a backlog behind a stalled pool yields a long, honest hint
// rather than one frozen at the last burst's speed.
func (rt *rateTracker) rate(now time.Time) float64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.n == 0 {
		return 0
	}
	oldest := rt.times[(rt.next-rt.n+len(rt.times))%len(rt.times)]
	window := now.Sub(oldest).Seconds()
	if window <= 0 {
		window = 1e-3
	}
	return float64(rt.n) / window
}

// New builds the pool: Workers rigs are constructed concurrently (each
// calibrates its own machine) and the engine is ready once all of them
// are. A configuration any rig rejects fails New as a whole.
func New(cfg Config) (*Engine, error) {
	cfg = cfg.normalized()
	var sink trace.Sink
	if cfg.Sink != nil {
		sink = &lockedSink{s: cfg.Sink}
	}

	rigs := make([]*Rig, cfg.Workers)
	errs := make([]error, cfg.Workers)
	var build sync.WaitGroup
	for i := range rigs {
		build.Add(1)
		go func(i int) {
			defer build.Done()
			rigs[i], errs[i] = newRig(cfg, sink, i)
		}(i)
	}
	build.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	e := &Engine{
		cfg:      cfg,
		rigs:     rigs,
		queue:    make(chan *Job, cfg.QueueDepth),
		jobs:     make(map[string]*Job),
		baseCtx:  ctx,
		hardStop: cancel,
		// One plan cache for the whole pool: plans are immutable once
		// optimized and keyed by content, so every worker can share them.
		plans:  circopt.NewCache(0, cfg.Metrics),
		flight: cfg.FlightRec,
		slos:   cfg.SLO,
		log:    cfg.Log,
	}
	e.registerMetrics()
	for _, rig := range rigs {
		e.wg.Add(1)
		go e.worker(rig)
	}
	return e, nil
}

// registerMetrics exposes the engine's instruments; a nil registry
// hands back nil (disabled) instruments throughout.
func (e *Engine) registerMetrics() {
	reg := e.cfg.Metrics
	e.rejected = reg.Counter(MetricRejected, "jobs rejected by queue backpressure")
	reg.GaugeFunc(MetricQueueLen, "jobs waiting in the submission queue",
		func() float64 { return float64(len(e.queue)) })
	reg.Gauge(MetricQueueCap, "submission queue capacity").Set(float64(e.cfg.QueueDepth))
	reg.GaugeFunc(MetricInflight, "jobs currently executing",
		func() float64 { return float64(e.inflight.Load()) })
	reg.Gauge(MetricWorkers, "worker pool size").Set(float64(e.cfg.Workers))
	reg.GaugeFunc(MetricHealthyWorkers, "workers whose gate-health monitor reports healthy",
		func() float64 {
			n := 0
			for _, r := range e.rigs {
				if r.Health.Healthy() {
					n++
				}
			}
			return float64(n)
		})
	reg.GaugeFunc(MetricDriftingWorkers, "workers whose drift detector is currently latched",
		func() float64 {
			n := 0
			for _, r := range e.rigs {
				if r.Health.Drifting() {
					n++
				}
			}
			return float64(n)
		})
}

// Seed returns the engine's root seed.
func (e *Engine) Seed() uint64 { return e.cfg.Seed }

// FlightRecorder returns the engine's flight recorder, or nil when the
// engine runs without one — the serving layer's handle for the trace
// retrieval endpoints.
func (e *Engine) FlightRecorder() *flightrec.Recorder { return e.flight }

// SLO returns the engine's SLO engine, or nil when the engine runs
// without one — the serving layer's handle for the budget and alert
// endpoints.
func (e *Engine) SLO() *slo.Engine { return e.slos }

// EventLog returns the engine's structured event logger, or nil.
func (e *Engine) EventLog() *evlog.Logger { return e.log }

// Workers returns the pool size.
func (e *Engine) Workers() int { return e.cfg.Workers }

// DrainRate returns the pool's recent job-completion rate in jobs per
// second, measured from the oldest retained completion to now (0 until
// the first job completes). The HTTP layer derives its 429 Retry-After
// hint from it.
func (e *Engine) DrainRate() float64 { return e.completions.rate(time.Now()) }

// Submit validates and enqueues a job. It never blocks: a full queue
// returns ErrQueueFull immediately, which is the backpressure signal
// serving layers translate into 429.
func (e *Engine) Submit(spec JobSpec) (*Job, error) {
	if _, ok := lookupHandler(spec.Type); !ok {
		return nil, fmt.Errorf("engine: unknown job type %q (have %v)", spec.Type, JobTypes())
	}
	if len(spec.Params) > 0 && !json.Valid(spec.Params) {
		return nil, fmt.Errorf("engine: job params are not valid JSON")
	}
	if spec.Timeout <= 0 {
		spec.Timeout = e.cfg.DefaultTimeout
	}

	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrClosed
	}
	seq := e.seq.Add(1)
	j := &Job{
		id:        fmt.Sprintf("job-%08d", seq),
		seq:       seq,
		spec:      spec,
		subSeed:   spec.Seed,
		status:    StatusQueued,
		submitted: time.Now(),
		done:      make(chan struct{}),
	}
	if j.subSeed == 0 {
		j.subSeed = noise.SubSeed(e.cfg.Seed, seq)
	}
	select {
	case e.queue <- j:
		e.jobs[j.id] = j
		e.mu.Unlock()
		return j, nil
	default:
		e.mu.Unlock()
		e.rejected.Inc()
		return nil, ErrQueueFull
	}
}

// Get returns a submitted job by id.
func (e *Engine) Get(id string) (*Job, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.jobs[id]
	return j, ok
}

// Jobs returns every retained job in submission order.
func (e *Engine) Jobs() []*Job {
	e.mu.Lock()
	out := make([]*Job, 0, len(e.jobs))
	for _, j := range e.jobs {
		out = append(out, j)
	}
	e.mu.Unlock()
	for i := 1; i < len(out); i++ {
		for k := i; k > 0 && out[k].seq < out[k-1].seq; k-- {
			out[k], out[k-1] = out[k-1], out[k]
		}
	}
	return out
}

// Stats is a point-in-time view of the pool for health endpoints.
type Stats struct {
	Workers       int   `json:"workers"`
	QueueDepth    int   `json:"queue_depth"`
	QueueCapacity int   `json:"queue_capacity"`
	Inflight      int   `json:"inflight"`
	Submitted     int64 `json:"submitted"`
	Draining      bool  `json:"draining"`
	// HealthyWorkers counts workers whose gate-health monitor reports
	// healthy; DriftingWorkers counts latched drift verdicts awaiting
	// recalibration. HealthyWorkers + unhealthy-but-not-drifting +
	// DriftingWorkers need not sum to Workers (a worker can be degraded
	// by error rate without drifting).
	HealthyWorkers  int `json:"healthy_workers"`
	DriftingWorkers int `json:"drifting_workers"`
}

// Stats reports the pool's current occupancy.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	s := Stats{
		Workers:       e.cfg.Workers,
		QueueDepth:    len(e.queue),
		QueueCapacity: e.cfg.QueueDepth,
		Inflight:      int(e.inflight.Load()),
		Submitted:     int64(e.seq.Load()),
		Draining:      closed,
	}
	for _, r := range e.rigs {
		if r.Health.Healthy() {
			s.HealthyWorkers++
		}
		if r.Health.Drifting() {
			s.DriftingWorkers++
		}
	}
	return s
}

// WorkerHealth pairs a worker's id with its gate-health snapshot.
type WorkerHealth struct {
	Worker   int             `json:"worker"`
	Snapshot health.Snapshot `json:"health"`
}

// Health snapshots every worker's gate-health monitor, ordered by
// worker id — the payload behind the serving layer's health detail
// endpoint.
func (e *Engine) Health() []WorkerHealth {
	out := make([]WorkerHealth, len(e.rigs))
	for i, r := range e.rigs {
		out[i] = WorkerHealth{Worker: r.ID, Snapshot: r.Health.Snapshot()}
	}
	return out
}

// Close drains the engine: intake stops (Submit returns ErrClosed),
// queued and in-flight jobs run to completion, workers exit. If ctx
// expires first, every remaining job is canceled hard and Close
// returns ctx.Err() after the workers confirm. Safe to call twice.
func (e *Engine) Close(ctx context.Context) error {
	e.mu.Lock()
	if !e.closed {
		e.closed = true
		close(e.queue)
	}
	e.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		e.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		e.hardStop()
		<-drained
		return ctx.Err()
	}
}

// worker owns one rig and serves the queue until drained. Between jobs
// the worker consults its health monitor: a latched drift verdict
// triggers an in-place recalibration — the work in hand has already
// drained, and the next job starts against a re-centered threshold.
func (e *Engine) worker(rig *Rig) {
	defer e.wg.Done()
	for j := range e.queue {
		e.runJob(rig, j)
		e.maybeRecalibrate(rig)
	}
}

// maybeRecalibrate recovers a drifted worker machine. The recalibration
// emits a KindCalibration event through the machine's health tap, which
// resets the monitor's drift detector — the close of the detect →
// recalibrate → reset loop.
func (e *Engine) maybeRecalibrate(rig *Rig) {
	if !rig.Health.Drifting() {
		return
	}
	workerLabel := metrics.L("worker", strconv.Itoa(rig.ID))
	if err := rig.Machine.Recalibrate(); err != nil {
		// The machine keeps its old threshold; leave the verdict latched
		// so the next job boundary retries the recalibration.
		e.cfg.Metrics.Counter(MetricRecalibrations,
			"worker recalibrations triggered by drift, by outcome",
			workerLabel, metrics.L("outcome", "failed")).Inc()
		e.log.Emit(evlog.Record{
			Level: evlog.Warn, Component: "engine", Event: "worker.recalibrate",
			Msg: "recalibration failed, verdict stays latched: " + err.Error(),
			Fields: evlog.Fields{evlog.F("worker", strconv.Itoa(rig.ID)),
				evlog.F("outcome", "failed")},
		})
		return
	}
	e.cfg.Metrics.Counter(MetricRecalibrations,
		"worker recalibrations triggered by drift, by outcome",
		workerLabel, metrics.L("outcome", "ok")).Inc()
	e.log.Emit(evlog.Record{
		Level: evlog.Info, Component: "engine", Event: "worker.recalibrate",
		Msg: "drift verdict cleared by recalibration",
		Fields: evlog.Fields{evlog.F("worker", strconv.Itoa(rig.ID)),
			evlog.F("outcome", "ok")},
	})
}

// runJob executes one job under its deadline and retry policy and
// moves it to a terminal state.
func (e *Engine) runJob(rig *Rig, j *Job) {
	e.inflight.Add(1)
	defer e.inflight.Add(-1)
	j.setRunning()

	// Open the job's private trace capture and point the worker's tap at
	// it. The capture is seeded with the health monitor's drift-state
	// checkpoint so a kept recording replays to the live verdict without
	// needing any earlier job's events.
	var capture *flightrec.Capture
	if e.flight != nil {
		capture = e.flight.Begin(rig.Tap, flightrec.Meta{
			JobID:     j.id,
			RequestID: j.spec.RequestID,
			Type:      j.spec.Type,
		})
		capture.Seed(rig.Health.StateEvent())
		rig.Tap.Set(capture)
	}

	ctx, cancel := context.WithTimeout(e.baseCtx, j.spec.Timeout)
	defer cancel()

	var tally gateTally
	res, panicked, err := e.attempts(ctx, rig, j, &tally)
	reg := e.cfg.Metrics
	typeLabel := metrics.L("type", j.spec.Type)
	switch {
	case err == nil:
		outcome := "plurality"
		if res.Quorum {
			outcome = "quorum"
		}
		reg.Counter(MetricVotes, "voted job results by outcome",
			typeLabel, metrics.L("outcome", outcome)).Inc()
		j.finish(StatusDone, res, "")
	case e.baseCtx.Err() != nil:
		j.finish(StatusCanceled, nil, "engine shutdown: "+err.Error())
	default:
		j.finish(StatusFailed, nil, err.Error())
	}
	st := j.Status()
	reg.Counter(MetricJobs, "jobs by terminal status",
		typeLabel, metrics.L("status", string(st))).Inc()
	snap := j.Snapshot()
	var latency time.Duration
	hasLatency := snap.Started != nil && snap.Finished != nil
	if hasLatency {
		latency = snap.Finished.Sub(*snap.Started)
	}

	var decision flightrec.Decision
	if capture != nil {
		rig.Tap.Set(nil)
		outcome := flightrec.Outcome{
			Status:   string(st),
			Error:    snap.Error,
			Drifting: rig.Health.Drifting(),
			Latency:  latency,
		}
		if res != nil {
			outcome.Retries = res.Retries
			outcome.Disagreement = res.Ballots > 1
		}
		verdict := rig.Health.Verdict()
		outcome.Verdict = &verdict
		decision = e.flight.Finish(capture, outcome)
		if panicked {
			// A handler panic is the post-mortem case par excellence: dump
			// the recorder (the panicking job was just kept on error) while
			// the evidence is fresh, in case the process does not survive
			// whatever corrupted the handler. A failing dump must not take
			// the worker down, so the error is deliberately dropped.
			_, _ = e.flight.Postmortem()
		}
	}
	if panicked {
		e.log.Emit(evlog.Record{
			Level: evlog.Error, Component: "engine", Event: "worker.panic",
			Msg: snap.Error, JobID: j.id, RequestID: j.spec.RequestID, TraceID: j.id,
			Fields: evlog.Fields{evlog.F("worker", strconv.Itoa(rig.ID)),
				evlog.F("type", j.spec.Type)},
			Unlimited: true, // a panic is never flood noise
		})
	}
	if hasLatency {
		h := reg.Histogram(MetricJobLatSec, "job execution wall time in seconds",
			jobSecondsBuckets, typeLabel)
		if decision.Kept {
			// The exemplar ties the latency bucket to a retrievable trace:
			// a spike on the histogram links straight to GET /v1/jobs/{id}/trace.
			h.ObserveExemplar(latency.Seconds(), metrics.L("trace_id", j.id))
		} else {
			h.Observe(latency.Seconds())
		}
	}
	// The SLO observation goes out after the flight-recorder decision so
	// a firing alert's pin request finds the kept trace already indexed.
	// TraceID is set only for kept traces — an alert must name evidence
	// that actually resolves at GET /v1/jobs/{id}/trace.
	if e.slos != nil {
		obs := slo.Observation{
			JobID:          j.id,
			RequestID:      j.spec.RequestID,
			Type:           j.spec.Type,
			Status:         string(st),
			LatencySeconds: latency.Seconds(),
			GateCorrect:    tally.correct,
			GateTotal:      tally.total,
		}
		if decision.Kept {
			obs.TraceID = j.id
		}
		e.slos.Observe(obs)
	}
	e.completions.record(time.Now())
	// Retire before waking Done() waiters, so a waiter that lists the
	// jobs sees this one already counted against the retention window.
	e.retire(j)
	// Only now wake Done() waiters: a synchronous client released any
	// earlier could fetch the job's trace before the recorder decided to
	// keep it and see a spurious 404.
	j.signalDone()
}

// retainJobs caps how many terminal jobs stay queryable; older ones are
// evicted oldest-first.
const retainJobs = 1024

// retire enrolls a terminal job in the retention window and evicts the
// oldest ones past retainJobs.
func (e *Engine) retire(j *Job) {
	e.mu.Lock()
	e.order = append(e.order, j.id)
	for len(e.order) > retainJobs {
		delete(e.jobs, e.order[0])
		e.order = e.order[1:]
	}
	e.mu.Unlock()
}

// runHandler executes one attempt with panic isolation: a panicking
// handler becomes an errored attempt instead of an unwound worker
// goroutine (which would strand the queue and leak the job's span).
func runHandler(ctx context.Context, h Handler, env *Env, params json.RawMessage) (value any, panicked bool, err error) {
	defer func() {
		if p := recover(); p != nil {
			panicked = true
			err = fmt.Errorf("engine: handler panic: %v", p)
		}
	}()
	value, err = h(ctx, env, params)
	return value, false, err
}

// attempts runs the redundant executions of one job and votes on the
// results. Attempt a derives its seed as SubSeed(job sub-seed, a), so
// the whole vote is a pure function of the job's sub-seed, wherever
// and in whatever order the pool schedules it. The panicked return
// reports whether any attempt's handler panicked (every panic is also
// an errored attempt).
func (e *Engine) attempts(ctx context.Context, rig *Rig, j *Job, tally *gateTally) (*Result, bool, error) {
	policy := e.cfg.Retry
	if j.spec.Attempts > 0 {
		policy.Attempts = j.spec.Attempts
	}
	if j.spec.Vote > 0 {
		policy.Vote = j.spec.Vote
	}
	policy = policy.normalized()

	h, _ := lookupHandler(j.spec.Type)
	typeLabel := metrics.L("type", j.spec.Type)
	retryCtr := func(reason string) *metrics.Counter {
		return e.cfg.Metrics.Counter(MetricRetries, "extra attempts by cause",
			typeLabel, metrics.L("reason", reason))
	}

	votes := make(map[string]int)
	var ballots []string // first-seen order, the deterministic tie-break
	res := &Result{}
	var lastErr error
	var sawPanic bool
	var cut error // the context error that ended the loop early

	for attempt := 0; attempt < policy.Attempts; attempt++ {
		if cut = ctx.Err(); cut != nil {
			break
		}

		seed := noise.SubSeed(j.subSeed, uint64(attempt))
		rig.Machine.ReseedNoise(seed)
		// The input RNG derives from the JOB sub-seed, not the attempt
		// seed: redundant attempts must rerun the same inputs under
		// fresh machine noise, or voting would compare apples to
		// oranges and random-input jobs could never reach quorum.
		env := &Env{rig: rig, rng: noise.NewRNG(noise.SubSeed(j.subSeed, ^uint64(0))), seed: seed, gate: tally, plans: e.plans}
		sp := rig.Machine.BeginSpan("job:" + j.spec.Type)
		rig.Machine.Annotate(j.annotation())
		value, panicked, err := runHandler(ctx, h, env, j.spec.Params)
		rig.Machine.EndSpan(sp)
		if panicked {
			sawPanic = true
		}
		res.Attempts++
		if err != nil {
			lastErr = err
			if cut = ctx.Err(); cut != nil {
				break
			}
			res.Retries++
			reason := RetryError
			if errors.Is(err, context.DeadlineExceeded) {
				reason = RetryTimeout
			}
			retryCtr(reason).Inc()
			e.log.Emit(evlog.Record{
				Level: evlog.Warn, Component: "engine", Event: "job.retry",
				Msg: err.Error(), JobID: j.id, RequestID: j.spec.RequestID, TraceID: j.id,
				Fields: evlog.Fields{evlog.F("reason", reason),
					evlog.F("attempt", strconv.Itoa(attempt+1)),
					evlog.F("worker", strconv.Itoa(rig.ID))},
			})
			continue
		}

		raw, err := json.Marshal(value)
		if err != nil {
			return nil, sawPanic, fmt.Errorf("engine: %s result not serializable: %w", j.spec.Type, err)
		}
		key := string(raw)
		if votes[key] == 0 {
			ballots = append(ballots, key)
			if len(ballots) > 1 {
				// A fresh conflicting ballot: every further attempt this
				// job burns is disagreement-driven.
				retryCtr(RetryMismatch).Inc()
				e.log.Emit(evlog.Record{
					Level: evlog.Warn, Component: "engine", Event: "job.disagreement",
					Msg:   "redundant attempts produced conflicting results",
					JobID: j.id, RequestID: j.spec.RequestID, TraceID: j.id,
					Fields: evlog.Fields{evlog.F("ballots", strconv.Itoa(len(ballots))),
						evlog.F("attempt", strconv.Itoa(attempt+1)),
						evlog.F("worker", strconv.Itoa(rig.ID))},
				})
			}
		}
		votes[key]++
		if votes[key] >= policy.Vote {
			res.Value = json.RawMessage(key)
			res.Votes = votes[key]
			res.Quorum = true
			res.Ballots = len(ballots)
			e.countDisagreements(typeLabel, ballots)
			return res, sawPanic, nil
		}
		// Stop early once no candidate can still reach the vote
		// threshold with the attempts that remain.
		best := 0
		for _, n := range votes {
			if n > best {
				best = n
			}
		}
		if best+(policy.Attempts-attempt-1) < policy.Vote {
			break
		}
	}

	// A deadline or shutdown that cuts the vote short leaves the job
	// without a result: the attempts that did finish are not the seeded
	// vote, and their plurality must not pass for it.
	if cut != nil {
		return nil, sawPanic, fmt.Errorf("engine: %s job stopped after %d of %d attempts: %w",
			j.spec.Type, res.Attempts, policy.Attempts, cut)
	}
	if len(ballots) == 0 {
		if lastErr == nil {
			lastErr = errors.New("engine: no attempt produced a result")
		}
		return nil, sawPanic, lastErr
	}
	// No quorum: the plurality winner stands, ties broken by first
	// appearance (attempt order is deterministic, so this is too).
	winner := ballots[0]
	for _, key := range ballots[1:] {
		if votes[key] > votes[winner] {
			winner = key
		}
	}
	res.Value = json.RawMessage(winner)
	res.Votes = votes[winner]
	res.Quorum = false
	res.Ballots = len(ballots)
	e.countDisagreements(typeLabel, ballots)
	return res, sawPanic, nil
}

// countDisagreements records how many conflicting result candidates a
// job's attempts produced beyond the first — per job type, the signal
// that a gate library's error rate is eating the vote budget.
func (e *Engine) countDisagreements(typeLabel metrics.Label, ballots []string) {
	if len(ballots) <= 1 {
		return
	}
	e.cfg.Metrics.Counter(MetricDisagreements,
		"conflicting result candidates beyond the first, per voted job", typeLabel).
		Add(uint64(len(ballots) - 1))
}
