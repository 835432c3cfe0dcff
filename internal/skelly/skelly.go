// Package skelly reproduces the paper's evaluation framework of the same
// name (§6.2): a static library of boolean functions backed by weird
// gates, which "abstracts away the need to understand the state of the
// microarchitecture to build weird circuits".
//
// It provides:
//
//   - reliability machinery: each logical gate operation executes the
//     underlying weird gate s times and takes the timing median, then
//     repeats that n times and takes a best-k-of-n vote (§5.2);
//   - instrumented correctness counters ("Correct After Median" /
//     "Correct After Vote", the columns of Table 4), enabled by the
//     Verify flag exactly like the paper's reporting compile flag;
//   - 1-bit primitives AND, OR, NAND, NOT, XOR, AND_AND_OR, a full
//     adder, and 32-bit convenience functions (bitwise ops, addition,
//     shifts and rotates) — the §6.2 inventory.
//
// Gate alignment management is inherited from package core, which gives
// every gate line-aligned code and data regions.
package skelly

import (
	"fmt"
	"slices"

	"uwm/internal/core"
	"uwm/internal/metrics"
)

// Config selects the redundancy and instrumentation parameters.
type Config struct {
	// S is how many timing samples feed one median decision.
	S int
	// N is how many median decisions feed one vote; K is the number of
	// agreeing decisions required to declare a 1 (otherwise majority
	// of medians decides; the paper's best-k-of-n).
	K, N int
	// Verify compares every gate decision against its truth table and
	// counts correctness — the paper's reporting mode. It does not
	// change results.
	Verify bool
	// AbortOnError makes logical operations fail fast when a vote
	// disagrees with the truth table (requires Verify); the paper
	// allowed skelly to abort on detected incorrect operations.
	AbortOnError bool
}

// FastConfig disables redundancy for tests and interactive use.
func FastConfig() Config { return Config{S: 1, K: 1, N: 1} }

// Counters instruments one gate type, matching Table 4's columns.
type Counters struct {
	MedianOps     uint64 // s-sample median decisions made
	MedianCorrect uint64
	VoteOps       uint64 // k-of-n vote decisions made
	VoteCorrect   uint64
}

// GateError reports a vote that disagreed with the truth table under
// AbortOnError.
type GateError struct {
	Gate string
	In   []int
	Got  int
	Want int
}

// Error implements the error interface.
func (e *GateError) Error() string {
	return fmt.Sprintf("skelly: %s%v voted %d, want %d", e.Gate, e.In, e.Got, e.Want)
}

// Skelly is the gate library bound to one machine.
type Skelly struct {
	m   *core.Machine
	cfg Config

	and  *core.BPGate
	or   *core.BPGate
	nand *core.BPGate
	aao  *core.BPGate

	counters map[string]*Counters

	// spanNames maps a primitive gate name to its pre-built skelly-level
	// profiling frame ("skelly:AND"): the redundancy loop of gateOp is a
	// distinct cost layer from the gate activations inside it, and the
	// names are interned here so the hot path never concatenates.
	spanNames map[string]string

	// Visibility accounting (§5.2): totalOps counts every logical gate
	// operation; visible counts the results a caller stored into
	// architecturally visible memory. Composite operations (Xor,
	// FullAdder) mark only their externally stored values, so the
	// fraction reproduces the paper's "41.9% of the intermediate
	// results were architecturally visible".
	totalOps uint64
	visible  uint64

	// OnVoteError, when set with Verify enabled, is invoked for every
	// vote that disagrees with the truth table — a diagnostics hook
	// for experiments that want to localize gate failures.
	OnVoteError func(gate string, in []int, got, want int)

	// checkpoint, when set, is polled before every logical gate
	// operation; a non-nil return abandons the circuit with that
	// error. See SetCheckpoint.
	checkpoint func() error

	// samples holds one median decision's S latencies and inputs a copy
	// of the operation's inputs for the truth table, which is called
	// through a function value. Both are reused by every operation, so
	// a logical gate operation allocates nothing and its variadic
	// inputs stay on the caller's stack. Four inputs is the widest
	// gate, AND_AND_OR.
	samples []int64
	inputs  [4]int
}

// New builds the library's gates on the given machine.
func New(m *core.Machine, cfg Config) (*Skelly, error) {
	if cfg.S < 1 || cfg.N < 1 || cfg.K < 1 || cfg.K > cfg.N {
		return nil, fmt.Errorf("skelly: invalid redundancy config s=%d k=%d n=%d", cfg.S, cfg.K, cfg.N)
	}
	s := &Skelly{m: m, cfg: cfg, counters: make(map[string]*Counters), samples: make([]int64, 0, cfg.S)}
	var err error
	if s.and, err = core.NewBPAnd(m); err != nil {
		return nil, err
	}
	if s.or, err = core.NewBPOr(m); err != nil {
		return nil, err
	}
	if s.nand, err = core.NewBPNand(m); err != nil {
		return nil, err
	}
	if s.aao, err = core.NewBPAndAndOr(m); err != nil {
		return nil, err
	}
	s.spanNames = make(map[string]string)
	for _, g := range []string{"AND", "OR", "NAND", "AND_AND_OR"} {
		s.counters[g] = &Counters{}
		s.spanNames[g] = "skelly:" + g
	}
	s.registerMetrics(m.Metrics())
	return s, nil
}

// Metric series exported by the gate library, all lazily collected
// from the Table 4 counters at scrape time.
const (
	MetricMedianOps       = "uwm_skelly_median_ops_total"
	MetricMedianCorrect   = "uwm_skelly_median_correct_total"
	MetricVoteOps         = "uwm_skelly_vote_ops_total"
	MetricVoteCorrect     = "uwm_skelly_vote_correct_total"
	MetricLogicalOps      = "uwm_skelly_logical_ops_total"
	MetricVisibleResults  = "uwm_skelly_visible_results_total"
	MetricVisibleFraction = "uwm_skelly_visible_fraction"
)

// registerMetrics exposes the Table 4 counters and the §5.2 visibility
// accounting on the machine's registry (a no-op when none is attached).
func (s *Skelly) registerMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	for name, ctr := range s.counters {
		ctr := ctr
		lbl := metrics.L("gate", name)
		reg.CounterFunc(MetricMedianOps, "s-sample median decisions", func() uint64 { return ctr.MedianOps }, lbl)
		reg.CounterFunc(MetricMedianCorrect, "median decisions matching the truth table", func() uint64 { return ctr.MedianCorrect }, lbl)
		reg.CounterFunc(MetricVoteOps, "k-of-n vote decisions", func() uint64 { return ctr.VoteOps }, lbl)
		reg.CounterFunc(MetricVoteCorrect, "vote decisions matching the truth table", func() uint64 { return ctr.VoteCorrect }, lbl)
	}
	reg.CounterFunc(MetricLogicalOps, "logical gate operations performed", func() uint64 { return s.totalOps })
	reg.CounterFunc(MetricVisibleResults, "gate results stored architecturally visibly", func() uint64 { return s.visible })
	reg.GaugeFunc(MetricVisibleFraction, "share of gate results crossing visible memory", s.VisibleFraction)
}

// Machine returns the underlying weird machine.
func (s *Skelly) Machine() *core.Machine { return s.m }

// Gate returns the underlying weird gate for a primitive name (AND,
// OR, NAND, AND_AND_OR), or nil — useful for inspection and debugging.
func (s *Skelly) Gate(name string) *core.BPGate {
	switch name {
	case "AND":
		return s.and
	case "OR":
		return s.or
	case "NAND":
		return s.nand
	case "AND_AND_OR":
		return s.aao
	default:
		return nil
	}
}

// Counters returns the instrumentation for one gate type.
func (s *Skelly) Counters(gate string) Counters {
	if c, ok := s.counters[gate]; ok {
		return *c
	}
	return Counters{}
}

// MarkVisible records that n gate results were stored into
// architecturally visible memory by the caller. Composite helpers
// (Xor, FullAdder, Not) mark their own outputs; callers using the raw
// gates directly mark theirs.
func (s *Skelly) MarkVisible(n int) { s.visible += uint64(n) }

// TotalGateOps returns the number of logical gate operations performed.
func (s *Skelly) TotalGateOps() uint64 { return s.totalOps }

// VisibleMarks returns how many gate results were marked as stored in
// architecturally visible memory.
func (s *Skelly) VisibleMarks() uint64 { return s.visible }

// VisibleFraction returns the share of gate results that crossed
// architecturally visible memory (§5.2's visibility metric).
func (s *Skelly) VisibleFraction() float64 {
	if s.totalOps == 0 {
		return 0
	}
	return float64(s.visible) / float64(s.totalOps)
}

// SetCheckpoint installs (or, with nil, removes) a cancellation poll
// invoked at every gate boundary: long-running circuits — a SHA-1
// compression is ~21k gate operations — abandon cleanly between gate
// activations instead of only between circuits. The canonical
// checkpoint is a context.Context's Err method, which is how the job
// engine enforces per-job deadlines.
func (s *Skelly) SetCheckpoint(fn func() error) { s.checkpoint = fn }

// gateOp runs one logical operation of gate g with the paper's
// redundancy scheme and instrumentation.
func (s *Skelly) gateOp(g *core.BPGate, in ...int) (int, error) {
	if s.checkpoint != nil {
		if err := s.checkpoint(); err != nil {
			return 0, err
		}
	}
	sp := s.m.BeginSpan(s.spanNames[g.Name()])
	defer s.m.EndSpan(sp)
	want := g.Golden(s.inputs[:copy(s.inputs[:], in)])
	ctr := s.counters[g.Name()]
	s.totalOps++
	ones := 0
	for vote := 0; vote < s.cfg.N; vote++ {
		deltas := s.samples[:0]
		for i := 0; i < s.cfg.S; i++ {
			_, d, err := g.RunTimed(in...)
			if err != nil {
				return 0, err
			}
			deltas = append(deltas, d)
		}
		slices.Sort(deltas)
		bit := s.m.ToBit(deltas[(len(deltas)-1)/2])
		ctr.MedianOps++
		if s.cfg.Verify && bit == want {
			ctr.MedianCorrect++
		}
		ones += bit
	}
	// Best-k-of-n: a 1 needs at least k agreeing medians and a strict
	// majority; with the paper's k=3, n=5 this is a plain majority.
	need := s.cfg.N/2 + 1
	if need < s.cfg.K {
		need = s.cfg.K
	}
	out := 0
	if ones >= need {
		out = 1
	}
	ctr.VoteOps++
	if s.cfg.Verify {
		if out == want {
			ctr.VoteCorrect++
		} else {
			if s.OnVoteError != nil {
				s.OnVoteError(g.Name(), slices.Clone(in), out, want)
			}
			if s.cfg.AbortOnError {
				return out, &GateError{Gate: g.Name(), In: append([]int(nil), in...), Got: out, Want: want}
			}
		}
	}
	return out, nil
}

// And returns a AND b computed by the weird machine.
func (s *Skelly) And(a, b int) (int, error) { return s.gateOp(s.and, a, b) }

// Or returns a OR b.
func (s *Skelly) Or(a, b int) (int, error) { return s.gateOp(s.or, a, b) }

// Nand returns a NAND b.
func (s *Skelly) Nand(a, b int) (int, error) { return s.gateOp(s.nand, a, b) }

// Not returns NOT a, built as NAND(a, a) — no dedicated gate needed
// once NAND exists (§3.2's universality).
func (s *Skelly) Not(a int) (int, error) {
	v, err := s.Nand(a, a)
	if err != nil {
		return 0, err
	}
	s.MarkVisible(1)
	return v, nil
}

// AndAndOr returns (a AND b) OR (c AND d), the composed gate of §5.2.
func (s *Skelly) AndAndOr(a, b, c, d int) (int, error) { return s.gateOp(s.aao, a, b, c, d) }

// Xor returns a XOR b as AND(OR(a,b), NAND(a,b)) — the partially
// architecturally visible composition the BP-gate SHA-1 uses: the two
// intermediate bits pass through architectural memory between gate
// activations, and only the final AND's output counts as a stored
// (visible) result.
func (s *Skelly) Xor(a, b int) (int, error) {
	sp := s.m.BeginSpan("circuit:xor")
	defer s.m.EndSpan(sp)
	or, err := s.Or(a, b)
	if err != nil {
		return 0, err
	}
	nand, err := s.Nand(a, b)
	if err != nil {
		return 0, err
	}
	v, err := s.And(or, nand)
	if err != nil {
		return 0, err
	}
	s.MarkVisible(1)
	return v, nil
}

// FullAdder returns (sum, carry) of a+b+cin, built from two weird XORs
// and one weird AND_AND_OR exactly as §5.2 describes.
func (s *Skelly) FullAdder(a, b, cin int) (sum, carry int, err error) {
	sp := s.m.BeginSpan("circuit:fulladder")
	defer s.m.EndSpan(sp)
	xab, err := s.Xor(a, b)
	if err != nil {
		return 0, 0, err
	}
	sum, err = s.Xor(xab, cin)
	if err != nil {
		return 0, 0, err
	}
	carry, err = s.AndAndOr(a, b, cin, xab)
	if err != nil {
		return 0, 0, err
	}
	// The adder stores three values architecturally: the reused
	// a⊕b, the sum and the carry (the Xor calls already marked the
	// first two; the carry is marked here). Net: 3 visible of 7 gate
	// operations, the ratio behind the paper's 41.9%.
	s.MarkVisible(1)
	return sum, carry, nil
}

// Bits32 converts a word to its 32 bits, LSB first.
func Bits32(v uint32) []int {
	out := make([]int, 32)
	for i := range out {
		out[i] = int(v >> uint(i) & 1)
	}
	return out
}

// Word32 reassembles bits (LSB first) into a word.
func Word32(bits []int) uint32 {
	var v uint32
	for i, b := range bits {
		if b != 0 {
			v |= 1 << uint(i)
		}
	}
	return v
}

// Xor32 returns a XOR b computed bitwise on weird gates.
func (s *Skelly) Xor32(a, b uint32) (uint32, error) { return s.map32("circuit:xor32", s.Xor, a, b) }

// Not32 returns NOT a bitwise.
func (s *Skelly) Not32(a uint32) (uint32, error) {
	sp := s.m.BeginSpan("circuit:not32")
	defer s.m.EndSpan(sp)
	bits := Bits32(a)
	for i, bit := range bits {
		nb, err := s.Not(bit)
		if err != nil {
			return 0, err
		}
		bits[i] = nb
	}
	return Word32(bits), nil
}

func (s *Skelly) map32(span string, op func(int, int) (int, error), a, b uint32) (uint32, error) {
	sp := s.m.BeginSpan(span)
	defer s.m.EndSpan(sp)
	ab, bb := Bits32(a), Bits32(b)
	out := make([]int, 32)
	for i := range out {
		v, err := op(ab[i], bb[i])
		if err != nil {
			return 0, err
		}
		out[i] = v
	}
	return Word32(out), nil
}

// Add32 returns a + b (mod 2³²) through a ripple-carry chain of weird
// full adders; no CPU add instruction touches the operands.
func (s *Skelly) Add32(a, b uint32) (uint32, error) {
	sp := s.m.BeginSpan("circuit:add32")
	defer s.m.EndSpan(sp)
	ab, bb := Bits32(a), Bits32(b)
	out := make([]int, 32)
	carry := 0
	for i := 0; i < 32; i++ {
		sum, c, err := s.FullAdder(ab[i], bb[i], carry)
		if err != nil {
			return 0, err
		}
		out[i] = sum
		carry = c
	}
	return Word32(out), nil
}

// RotL32 rotates left by n bits — pure wiring, no gates (§6.2 lists
// 32-bit left shift/rotate among skelly's convenience functions).
func RotL32(v uint32, n uint) uint32 { return v<<(n&31) | v>>((32-n)&31) }
