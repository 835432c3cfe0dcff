package core

import (
	"fmt"
	"slices"

	"uwm/internal/isa"
	"uwm/internal/mem"
	"uwm/internal/metrics"
	"uwm/internal/trace"
)

// Gate is a weird gate of either family: the branch-predictor /
// instruction-cache gates of §3 (*BPGate) and the transactional gates
// of §4 (*TSXGate). Both take bits and give bits, with inputs and
// outputs living only in microarchitectural state, so every consumer
// drives them through this one interface. It is sealed to this package.
type Gate interface {
	// Name returns the gate's catalogue name.
	Name() string
	// Arity returns the number of logical inputs.
	Arity() int
	// Outputs returns the number of logical outputs.
	Outputs() int
	// Program exposes the gate's assembled program, e.g. for
	// disassembly.
	Program() *isa.Program
	// FireUses reports whether the fire section uses the given opcode —
	// the architectural-invisibility check.
	FireUses(op isa.Op) bool
	// Truth writes the gate's reference outputs for the inputs into out,
	// which holds at least Outputs() elements.
	Truth(in, out []int)
	// Activate performs one full timed activation. It writes the output
	// bits and their read latencies (in cycles) into caller-owned
	// slices of at least Outputs() elements and allocates nothing.
	Activate(in, bits []int, deltas []int64) error

	base() *gateBase
}

// gateBase is what both gate families share: identity, the assembled
// program with its prep/fire/read entry points, the pre-built profiling
// frame name ("gate:AND", so activations never concatenate strings) and
// the activation instruments.
type gateBase struct {
	m                *Machine
	name, family     string
	arity            int
	prog             *isa.Program
	prep, fire, read int
	span             string
	// readText memoizes the timed-read event texts, index 2*out+bit,
	// filled on the first read that is traced or tapped.
	readText []string

	fires   *metrics.Counter
	readLat *metrics.Histogram
}

func newGateBase(m *Machine, name, family string, arity int, prog *isa.Program) gateBase {
	g := gateBase{
		m: m, name: name, family: family, arity: arity, prog: prog, span: "gate:" + name,
		prep: prog.MustEntry("prep"), fire: prog.MustEntry("fire"), read: prog.MustEntry("read"),
	}
	g.fires, g.readLat = m.gateInstruments(name, family)
	return g
}

// Name returns the gate's name.
func (g *gateBase) Name() string { return g.name }

// Arity returns the number of logical inputs.
func (g *gateBase) Arity() int { return g.arity }

// Program exposes the gate's assembled program, e.g. for disassembly.
func (g *gateBase) Program() *isa.Program { return g.prog }

// FireUses reports whether the fire section (the weird circuit itself)
// uses the given opcode.
func (g *gateBase) FireUses(op isa.Op) bool { return g.prog.Uses(op, g.fire, g.read) }

func (g *gateBase) base() *gateBase { return g }

// emitTimedRead publishes output out's measured read latency on the
// microarchitectural trace plane, tagged with the gate name, output
// index and decoded bit so offline analysis (cmd/uwm-trace) can
// reconstruct per-gate timelines and correlate speculative-window
// lengths with gate outcomes. It does nothing unless a live sink or a
// health tap is attached, and the text is formatted once per
// (output, bit), so traced activations allocate nothing either.
func (g *gateBase) emitTimedRead(out, bit int, delta int64, addr mem.Addr) {
	m := g.m
	s := m.cpu.Sink()
	live := trace.Enabled(s)
	if !live && m.healthTap == nil {
		return
	}
	i := 2*out + bit
	if i >= len(g.readText) {
		g.readText = append(g.readText, make([]string, i+1-len(g.readText))...)
	}
	if g.readText[i] == "" {
		g.readText[i] = trace.FormatTimedRead(g.name, out, bit)
	}
	e := trace.Event{
		Kind:  trace.KindTimedRead,
		Cycle: m.cpu.TSC(),
		Addr:  uint64(addr),
		Value: uint64(delta),
		Text:  g.readText[i],
	}
	if m.healthTap != nil {
		m.healthTap.Emit(e)
	}
	if live {
		s.Emit(e)
	}
}

// checkArity rejects an input vector of the wrong length.
func (g *gateBase) checkArity(in []int) error {
	if len(in) != g.arity {
		return fmt.Errorf("core: gate %s wants %d inputs, got %d", g.name, g.arity, len(in))
	}
	return nil
}

// GateSpec is one gate catalogue entry.
type GateSpec struct {
	Name  string
	Arity int
	New   func(*Machine) (Gate, error)
}

// gateSpec wraps a constructor so that a failed build returns a nil
// Gate rather than one holding a nil pointer.
func gateSpec[G Gate](name string, arity int, build func(*Machine) (G, error)) GateSpec {
	return GateSpec{Name: name, Arity: arity, New: func(m *Machine) (Gate, error) {
		g, err := build(m)
		if err != nil {
			return nil, err
		}
		return g, nil
	}}
}

// catalog lists every gate in construction order: the BP family, then
// the TSX family. Its first eight entries are the gates a serving
// worker builds, in the order it builds them.
var catalog = []GateSpec{
	gateSpec("AND", 2, NewBPAnd),
	gateSpec("OR", 2, NewBPOr),
	gateSpec("NAND", 2, NewBPNand),
	gateSpec("AND_AND_OR", 4, NewBPAndAndOr),
	gateSpec("TSX_AND", 2, NewTSXAnd),
	gateSpec("TSX_OR", 2, NewTSXOr),
	gateSpec("TSX_XOR", 2, NewTSXXor),
	gateSpec("TSX_ASSIGN", 1, NewTSXAssign),
	gateSpec("TSX_AND_OR", 2, NewTSXAndOr),
	gateSpec("TSX_NOT", 1, NewTSXNot),
}

// Catalog returns every gate in construction order.
func Catalog() []GateSpec { return slices.Clone(catalog) }

// LookupGate returns the catalogue entry with the given name.
func LookupGate(name string) (GateSpec, bool) {
	i := slices.IndexFunc(catalog, func(s GateSpec) bool { return s.Name == name })
	if i < 0 {
		return GateSpec{}, false
	}
	return catalog[i], true
}

// NewGate builds the named catalogue gate on m.
func NewGate(m *Machine, name string) (Gate, error) {
	s, ok := LookupGate(name)
	if !ok {
		return nil, fmt.Errorf("core: unknown gate %q", name)
	}
	return s.New(m)
}

// RegisterSpec is one weird-register catalogue entry.
type RegisterSpec struct {
	Name string
	New  func(*Machine) (WeirdRegister, error)
}

func registerSpec[R WeirdRegister](name string, build func(*Machine) (R, error)) RegisterSpec {
	return RegisterSpec{Name: name, New: func(m *Machine) (WeirdRegister, error) {
		r, err := build(m)
		if err != nil {
			return nil, err
		}
		return r, nil
	}}
}

// Registers returns every Table 1 weird register in construction order.
func Registers() []RegisterSpec {
	return []RegisterSpec{
		registerSpec("d-cache (DC-WR)", NewDCWR),
		registerSpec("i-cache (IC-WR)", NewICWR),
		registerSpec("branch predictor (BP-WR)", NewBPWR),
		registerSpec("BTB", NewBTBWR),
		registerSpec("mul contention", NewMulWR),
		registerSpec("ROB contention", NewROBWR),
	}
}
