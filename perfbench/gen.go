package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"

	"uwm/internal/circopt"
	"uwm/internal/core"
)

// Every workload input is a pure function of the workload seed: each
// generator below draws from its own PCG stream keyed by (seed, a
// per-generator constant), so the i-th operation of a seed is the same
// on every run, however far the run gets.

// gateNames are the eight gate names the engine's gate job type
// accepts: the branch-predictor family first, then the TSX family, in
// the order the engine's worker rigs build them.
var gateNames = []string{"AND", "OR", "NAND", "AND_AND_OR", "TSX_AND", "TSX_OR", "TSX_XOR", "TSX_ASSIGN"}

// gateArity is the input count of each gate in gateNames.
var gateArity = map[string]int{
	"AND": 2, "OR": 2, "NAND": 2, "AND_AND_OR": 4,
	"TSX_AND": 2, "TSX_OR": 2, "TSX_XOR": 2, "TSX_ASSIGN": 1,
}

// gateTruth is each gate's truth table (every engine gate has one
// output), written out here rather than taken from the gates' own
// Golden methods so the benchmark's check does not trust the code it
// checks.
func gateTruth(gate string, in []int) (int, error) {
	if len(in) != gateArity[gate] {
		return 0, fmt.Errorf("gate %s takes %d inputs, got %d", gate, gateArity[gate], len(in))
	}
	switch gate {
	case "AND", "TSX_AND":
		return in[0] & in[1], nil
	case "OR", "TSX_OR":
		return in[0] | in[1], nil
	case "NAND":
		return 1 - in[0]&in[1], nil
	case "AND_AND_OR":
		return in[0]&in[1] | in[2]&in[3], nil
	case "TSX_XOR":
		return in[0] ^ in[1], nil
	case "TSX_ASSIGN":
		return in[0], nil
	}
	return 0, fmt.Errorf("unknown gate %q", gate)
}

func newRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

func randBits(r *rand.Rand, n int) []int {
	v := make([]int, n)
	for i := range v {
		v[i] = int(r.Uint64() & 1)
	}
	return v
}

// jobSeed draws a non-zero job seed (zero would ask the engine to
// derive one from its submission order, which is not a function of
// the workload seed).
func jobSeed(r *rand.Rand) uint64 {
	for {
		if s := r.Uint64() >> 1; s != 0 {
			return s
		}
	}
}

// --- gates ----------------------------------------------------------------

// gateStream yields the gates workload: gates drawn with equal weights,
// inputs uniform.
type gateStream struct {
	r   *rand.Rand
	buf [4]int
}

func newGateStream(seed uint64) *gateStream { return &gateStream{r: newRand(seed, 0x67617465)} }

// next returns the next activation: an index into gateNames and its
// inputs. The input slice is reused by the following call, so the
// measured loop allocates nothing of its own.
func (s *gateStream) next() (int, []int) {
	g := s.r.IntN(len(gateNames))
	in := s.buf[:gateArity[gateNames[g]]]
	for i := range in {
		in[i] = int(s.r.Uint64() & 1)
	}
	return g, in
}

// --- circuit ----------------------------------------------------------------

// circuitBlock fixes the composition of every block of eight circuit
// jobs; only the order within a block and the inline netlists vary with
// the seed. The job classes take increasing time: inline netlists
// (small), adder32, sha1round. Sorted by latency, inline jobs fill the
// lowest 3/8, adder32 the next 4/8 and sha1round the top 1/8, so p50
// falls inside the adder32 class and p90 and p99 inside the sha1round
// class, never on the edge between two classes.
var circuitBlock = []circuitKind{
	{optimize: true},
	{optimize: true},
	{optimize: false},
	{preset: "adder32", optimize: true},
	{preset: "adder32", optimize: true},
	{preset: "adder32", optimize: true},
	{preset: "adder32", optimize: false},
	{preset: "sha1round", optimize: true},
}

// Declared shares of the circuit mix, checked against the generator by
// the tests.
const (
	circuitPresetShare = 5.0 / 8 // jobs naming a preset (plan-cache hits)
	circuitInlineShare = 3.0 / 8 // jobs carrying a netlist seen once
	circuitUnoptShare  = 2.0 / 8 // jobs with optimize:false (serial walk)
	// circuitVectorsPerJob is two rather than the engine's default of
	// four: twice the jobs per run gives p99 about ten samples beyond it.
	circuitVectorsPerJob = 2
)

type circuitKind struct {
	preset   string // "" for an inline netlist
	optimize bool
}

// circuitJob is one engine circuit job with its reference netlist.
type circuitJob struct {
	kind   circuitKind
	spec   *core.CircuitSpec
	inputs [][]int
	seed   uint64
	params json.RawMessage
}

type circuitStream struct {
	r       *rand.Rand
	pending []circuitJob
	presets map[string]*core.CircuitSpec
}

func newCircuitStream(seed uint64) *circuitStream {
	return &circuitStream{r: newRand(seed, 0x63697263), presets: make(map[string]*core.CircuitSpec)}
}

func (s *circuitStream) next() (circuitJob, error) {
	if len(s.pending) == 0 {
		order := s.r.Perm(len(circuitBlock))
		for _, i := range order {
			job, err := s.build(circuitBlock[i])
			if err != nil {
				return circuitJob{}, err
			}
			s.pending = append(s.pending, job)
		}
	}
	job := s.pending[0]
	s.pending = s.pending[1:]
	return job, nil
}

func (s *circuitStream) build(kind circuitKind) (circuitJob, error) {
	job := circuitJob{kind: kind}
	var p struct {
		Circuit  string            `json:"circuit,omitempty"`
		Spec     *circopt.SpecJSON `json:"spec,omitempty"`
		Inputs   [][]int           `json:"inputs"`
		Optimize *bool             `json:"optimize,omitempty"`
	}
	if kind.preset != "" {
		spec, ok := s.presets[kind.preset]
		if !ok {
			var err error
			if spec, err = circopt.Preset(kind.preset); err != nil {
				return job, err
			}
			s.presets[kind.preset] = spec
		}
		job.spec = spec
		p.Circuit = kind.preset
	} else {
		job.spec = randomNetlist(s.r)
		p.Spec = circopt.EncodeSpec(job.spec)
	}
	for v := 0; v < circuitVectorsPerJob; v++ {
		job.inputs = append(job.inputs, randBits(s.r, job.spec.NumInputs))
	}
	p.Inputs = job.inputs
	if !kind.optimize {
		f := false
		p.Optimize = &f
	}
	job.seed = jobSeed(s.r)
	raw, err := json.Marshal(p)
	if err != nil {
		return job, err
	}
	job.params = raw
	return job, nil
}

// randomNetlist builds a netlist the engine has never seen: 8–24
// inputs, 40–160 gates over and/or/not/assign with operands biased
// towards recent wires (so it has depth), about one gate in ten an
// exact duplicate of an earlier one (work for CSE), and outputs drawn
// from the last wires (so early side branches are dead code).
func randomNetlist(r *rand.Rand) *core.CircuitSpec {
	spec := core.NewCircuitSpec(8 + r.IntN(17))
	n := 40 + r.IntN(121)
	pick := func() core.WireID {
		w := spec.NumWires()
		if r.IntN(3) == 0 {
			return core.WireID(r.IntN(w))
		}
		return core.WireID(max(0, w-1-r.IntN(min(w, 12))))
	}
	for len(spec.Gates) < n {
		if len(spec.Gates) > 0 && r.IntN(10) == 0 {
			g := spec.Gates[r.IntN(len(spec.Gates))]
			switch g.Op {
			case core.CircAnd:
				spec.And(g.A, g.B)
			case core.CircOr:
				spec.Or(g.A, g.B)
			case core.CircNot:
				spec.Not(g.A)
			default:
				spec.Assign(g.A)
			}
			continue
		}
		switch k := r.IntN(20); {
		case k < 7:
			spec.And(pick(), pick())
		case k < 14:
			spec.Or(pick(), pick())
		case k < 19:
			spec.Not(pick())
		default:
			spec.Assign(pick())
		}
	}
	outs := 4 + r.IntN(13)
	w := spec.NumWires()
	for i := 0; i < outs; i++ {
		spec.Output(core.WireID(w - 1 - r.IntN(min(w, 3*outs))))
	}
	return spec
}

// --- serve ------------------------------------------------------------------

// Declared shares of the serve mix, checked against the generator by
// the tests. After the first serveRepeatFrom requests, one request in
// every block of four repeats, byte for byte, a fresh request sent
// between 4 and 16 requests earlier; of the fresh requests, one in
// every block of serveCircuitEvery is an adder8 circuit job and the
// rest are gate jobs of 1–4 activations. An adder8 job takes about ten
// times as long as a gate job and holds up its backend's one worker,
// so circuits and the requests queued behind them make the slow tail:
// at one in 32 fresh requests that tail is a few percent, which puts
// p50 and p90 inside the gate jobs' body and p99 inside the tail,
// rather than on the edge between them.
const (
	serveRepeatShare  = 1.0 / 4
	serveCircuitEvery = 32
	serveCircuitShare = 1.0 / serveCircuitEvery // of fresh requests
	serveRepeatFrom   = 16
)

// serveReq is one POST /v1/jobs?wait=1 body with its reference data.
type serveReq struct {
	body   []byte
	repeat int // index of the request this one repeats, or -1
	gate   string
	spec   *core.CircuitSpec // adder8 circuit jobs only
	inputs [][]int
	seed   uint64
}

type serveStream struct {
	r          *rand.Rand
	n          int          // requests generated so far
	recent     [16]serveReq // request i lives in recent[i%16]
	repeatSlot int          // position of the repeat in the current block of four
	freshCount int
	circuitAt  int // fresh-request index of the circuit job in the current block
	adder8     *core.CircuitSpec
}

func newServeStream(seed uint64) (*serveStream, error) {
	spec, err := circopt.Preset("adder8")
	if err != nil {
		return nil, err
	}
	return &serveStream{r: newRand(seed, 0x73657276), adder8: spec}, nil
}

// next returns the next request. Only the last sixteen are retained,
// so a long run does not grow the generator's memory.
func (s *serveStream) next() (serveReq, error) {
	i := s.n
	if i%4 == 0 {
		s.repeatSlot = s.r.IntN(4)
	}
	if i >= serveRepeatFrom && i%4 == s.repeatSlot {
		for {
			j := i - 4 - s.r.IntN(13)
			if s.recent[j%16].repeat < 0 {
				req := s.recent[j%16]
				req.repeat = j
				s.push(req)
				return req, nil
			}
		}
	}
	if s.freshCount%serveCircuitEvery == 0 {
		s.circuitAt = s.freshCount + s.r.IntN(serveCircuitEvery)
	}
	req := serveReq{repeat: -1}
	var body struct {
		Type   string `json:"type"`
		Seed   uint64 `json:"seed"`
		Params any    `json:"params"`
	}
	if s.freshCount == s.circuitAt {
		req.spec = s.adder8
		req.inputs = [][]int{randBits(s.r, s.adder8.NumInputs)}
		body.Type = "circuit"
		body.Params = map[string]any{"circuit": "adder8", "inputs": req.inputs}
	} else {
		req.gate = gateNames[s.r.IntN(len(gateNames))]
		for n := 1 + s.r.IntN(4); n > 0; n-- {
			req.inputs = append(req.inputs, randBits(s.r, gateArity[req.gate]))
		}
		body.Type = "gate"
		body.Params = map[string]any{"gate": req.gate, "inputs": req.inputs}
	}
	body.Seed = jobSeed(s.r)
	req.seed = body.Seed
	raw, err := json.Marshal(body)
	if err != nil {
		return req, err
	}
	req.body = raw
	s.freshCount++
	s.push(req)
	return req, nil
}

func (s *serveStream) push(req serveReq) {
	s.recent[s.n%16] = req
	s.n++
}
