package engine

import (
	"fmt"
	"sync"

	"uwm/internal/circopt"
	"uwm/internal/core"
	"uwm/internal/flightrec"
	"uwm/internal/health"
	"uwm/internal/noise"
	"uwm/internal/sha1wm"
	"uwm/internal/skelly"
	"uwm/internal/trace"
)

// Rig is the warm execution state one worker pins: a calibrated
// Machine plus every resource the built-in job types need, constructed
// once in a fixed order. Machines are not concurrency-safe and have no
// Reset, so the pool never shares a Rig between workers; instead every
// worker builds an identical one — same seed, same construction order,
// hence the same calibrated threshold and the same address layout —
// and per-job reproducibility comes from re-pinning the machine's
// noise stream to the job's sub-seed before each attempt.
type Rig struct {
	// ID is the worker index, stable for the engine's lifetime; it
	// labels the worker's health snapshot and recalibration metrics.
	ID      int
	Machine *core.Machine
	// Health tracks the machine's gate-timing health. It is wired as the
	// machine's health tap, so calibration and timed-read events reach
	// it whether or not a full trace sink is attached.
	Health *health.Monitor
	// Skelly carries the redundant BP-gate library the circuit and
	// SHA-1 job types run on.
	Skelly *skelly.Skelly
	// Hasher is the SHA-1 weird hash bound to Skelly.
	Hasher *sha1wm.Hasher
	// DC is the data-cache weird register backing the covert-channel
	// job type.
	DC core.WeirdRegister
	// Tap is the worker's switchpoint into the flight recorder: the
	// worker points it at the running job's capture so the machine's
	// event stream lands in the job's private buffer as well as the
	// shared sink. Nil when the engine runs without a flight recorder.
	Tap *flightrec.Tap

	gates map[string]core.Gate
}

// rigGates are the gates a rig serves by name, in build order: skelly
// builds the BP four, the rig the TSX four.
var rigGates = []string{"AND", "OR", "NAND", "AND_AND_OR", "TSX_AND", "TSX_OR", "TSX_XOR", "TSX_ASSIGN"}

// Gate returns the named gate the "gate" job type runs, or nil. The BP
// gates are the instances Skelly holds.
func (r *Rig) Gate(name string) core.Gate { return r.gates[name] }

// newRig builds a worker's machine and job resources. Every worker
// calls it with the same configuration, so all rigs are clones; the
// build order below is part of the determinism contract (it fixes the
// address layout gates compute against).
func newRig(cfg Config, sink trace.Sink, id int) (*Rig, error) {
	// Every worker carries a monitor: when its drift detector fires, the
	// worker finishes the job in hand and recalibrates its machine before
	// taking the next one.
	mon := health.NewMonitor()
	// The flight-recorder tap rides the sink path, not the health tap:
	// the machine emits the same timed-read and calibration events to
	// both, so a per-job capture sees exactly the reads the monitor saw —
	// the property the replayed-verdict guarantee rests on.
	var tap *flightrec.Tap
	if cfg.FlightRec != nil {
		tap = flightrec.NewTap()
		sink = trace.Tee(sink, tap)
	}
	m, err := core.NewMachine(core.Options{
		Seed:            cfg.Seed,
		Noise:           *cfg.Noise,
		TrainIterations: cfg.TrainIterations,
		Sink:            sink,
		HealthTap:       mon,
	})
	if err != nil {
		return nil, fmt.Errorf("engine: building worker machine: %w", err)
	}
	// The gate library runs s=3, k=1, n=1 with verification counters on.
	sk, err := skelly.New(m, skelly.Config{S: 3, K: 1, N: 1, Verify: true})
	if err != nil {
		return nil, fmt.Errorf("engine: building gate library: %w", err)
	}
	gates := make(map[string]core.Gate, len(rigGates))
	for _, name := range rigGates {
		if g := sk.Gate(name); g != nil {
			gates[name] = g
			continue
		}
		g, err := core.NewGate(m, name)
		if err != nil {
			return nil, fmt.Errorf("engine: building gate %s: %w", name, err)
		}
		gates[name] = g
	}
	dc, err := core.NewDCWR(m)
	if err != nil {
		return nil, fmt.Errorf("engine: building covert register: %w", err)
	}
	return &Rig{ID: id, Machine: m, Health: mon, Skelly: sk, Hasher: sha1wm.New(sk), DC: dc, Tap: tap, gates: gates}, nil
}

// gateTally accumulates per-op gate accuracy across all attempts of
// one job — the evidence stream behind the gate-accuracy SLO. It is
// owned by the job's worker goroutine; no locking.
type gateTally struct {
	correct int
	total   int
}

// Env is what a job handler executes against: the worker's pinned rig
// plus the job attempt's derived randomness. The machine's noise
// stream has already been re-pinned to Seed when the handler runs.
type Env struct {
	rig   *Rig
	rng   *noise.RNG
	seed  uint64
	gate  *gateTally
	plans *circopt.Cache
}

// RecordGateOutcome reports a handler's per-op gate accuracy (correct
// ops out of total) into the job's SLO evidence. Handlers call it even
// when the job goes on to fail an accuracy floor — a failed job's bad
// ops are exactly what the gate-accuracy budget must charge for.
func (e *Env) RecordGateOutcome(correct, total int) {
	if e.gate != nil {
		e.gate.correct += correct
		e.gate.total += total
	}
}

// Rig returns the worker's warm execution state.
func (e *Env) Rig() *Rig { return e.rig }

// Machine returns the worker's pinned machine.
func (e *Env) Machine() *core.Machine { return e.rig.Machine }

// RNG returns the job's input-randomness stream, derived from the job
// sub-seed and independent of the machine's noise stream. It restarts
// identically for every attempt of the job, so redundant executions
// rerun the same inputs and result voting compares like against like.
func (e *Env) RNG() *noise.RNG { return e.rng }

// Seed returns the attempt's derived seed, for handlers that build
// their own machine (the APT transform does) instead of using the
// pinned one.
func (e *Env) Seed() uint64 { return e.seed }

// Plans returns the engine's shared content-addressed plan cache, or
// nil when the env was built outside an engine. Handlers fall back to
// a direct circopt.Optimize in that case — same plan, no reuse.
func (e *Env) Plans() *circopt.Cache { return e.plans }

// lockedSink serializes trace emission from concurrent worker
// machines onto one shared sink (a -trace-out file, the -cycleprof
// profiler). File sinks are single-writer; without this, two workers
// flushing JSONL lines would interleave bytes.
type lockedSink struct {
	mu sync.Mutex
	s  trace.Sink
}

// Emit implements trace.Sink.
func (l *lockedSink) Emit(e trace.Event) {
	l.mu.Lock()
	l.s.Emit(e)
	l.mu.Unlock()
}

// Enabled defers to the wrapped sink so disabled-path elision keeps
// working through the lock.
func (l *lockedSink) Enabled() bool { return trace.Enabled(l.s) }
