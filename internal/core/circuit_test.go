package core

import (
	"strings"
	"testing"

	"uwm/internal/isa"
	"uwm/internal/noise"
)

func TestCircuitSpecValidate(t *testing.T) {
	s := NewCircuitSpec(2)
	w := s.And(0, 1)
	s.Output(w)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}

	bad := &CircuitSpec{NumInputs: 1, Gates: []CircuitGate{{Op: CircAnd, A: 0, B: 5, Out: 1}}, Outputs: []WireID{1}}
	if err := bad.Validate(); err == nil {
		t.Error("undefined operand accepted")
	}
	bad2 := &CircuitSpec{NumInputs: 1, Gates: []CircuitGate{{Op: CircNot, A: 0, Out: 3}}, Outputs: []WireID{3}}
	if err := bad2.Validate(); err == nil {
		t.Error("non-sequential wire accepted")
	}
	noOut := NewCircuitSpec(1)
	noOut.Not(0)
	if err := noOut.Validate(); err == nil {
		t.Error("output-less circuit accepted")
	}
}

func TestCircuitSpecEval(t *testing.T) {
	s := NewCircuitSpec(3)
	x := s.Xor(0, 1)
	y := s.And(x, 2)
	s.Output(y)
	s.Output(x)
	for c := 0; c < 8; c++ {
		in := []int{c & 1, c >> 1 & 1, c >> 2 & 1}
		out, err := s.Eval(in)
		if err != nil {
			t.Fatal(err)
		}
		wantX := in[0] ^ in[1]
		if out[1] != wantX || out[0] != wantX&in[2] {
			t.Errorf("eval(%v) = %v", in, out)
		}
	}
	if _, err := s.Eval([]int{1}); err == nil {
		t.Error("wrong arity accepted")
	}
}

func TestCompiledCircuitPrimitives(t *testing.T) {
	m := quiet(t)
	s := NewCircuitSpec(2)
	and := s.And(0, 1)
	or := s.Or(0, 1)
	not := s.Not(0)
	asn := s.Assign(1)
	s.Output(and)
	s.Output(or)
	s.Output(not)
	s.Output(asn)
	c, err := CompileCircuit(m, s)
	if err != nil {
		t.Fatal(err)
	}
	if c.Transactions() != 4 {
		t.Errorf("transactions = %d", c.Transactions())
	}
	for _, in := range Combinations(2) {
		got, err := c.Run(in...)
		if err != nil {
			t.Fatal(err)
		}
		want := c.Golden(in)
		for k := range want {
			if got[k] != want[k] {
				t.Errorf("in=%v out[%d]=%d want %d", in, k, got[k], want[k])
			}
		}
	}
}

func TestCompiledCircuitXor(t *testing.T) {
	m := quiet(t)
	s := NewCircuitSpec(2)
	s.Output(s.Xor(0, 1))
	c, err := CompileCircuit(m, s)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range Combinations(2) {
		got, err := c.Run(in...)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != in[0]^in[1] {
			t.Errorf("xor%v = %d", in, got[0])
		}
	}
}

// TestCircuitFullAdder runs the §5.2 full adder as a single contiguous
// weird circuit: 2 XOR expansions + carry logic, ~12 chained
// transactions, no architectural intermediate values.
func TestCircuitFullAdder(t *testing.T) {
	m := quiet(t)
	s := NewCircuitSpec(3)
	xab := s.Xor(0, 1)
	sum := s.Xor(xab, 2)
	carry := s.Or(s.And(0, 1), s.And(2, xab))
	s.Output(sum)
	s.Output(carry)
	c, err := CompileCircuit(m, s)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range Combinations(3) {
		got, err := c.Run(in...)
		if err != nil {
			t.Fatal(err)
		}
		total := in[0] + in[1] + in[2]
		if got[0] != total&1 || got[1] != total>>1 {
			t.Errorf("adder%v = %v, want (%d,%d)", in, got, total&1, total>>1)
		}
	}
}

// TestCircuitTwoBitAdder chains two full adders through the carry wire —
// a deeper circuit (≈24 transactions) exercising wire reuse across
// levels.
func TestCircuitTwoBitAdder(t *testing.T) {
	m := quiet(t)
	s := NewCircuitSpec(4) // a0 a1 b0 b1
	x0 := s.Xor(0, 2)
	c0 := s.And(0, 2)
	x1 := s.Xor(1, 3)
	sum1 := s.Xor(x1, c0)
	c1 := s.Or(s.And(1, 3), s.And(c0, x1))
	s.Output(x0)   // sum bit 0
	s.Output(sum1) // sum bit 1
	s.Output(c1)   // carry out
	c, err := CompileCircuit(m, s)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 4; a++ {
		for bv := 0; bv < 4; bv++ {
			in := []int{a & 1, a >> 1, bv & 1, bv >> 1}
			got, err := c.Run(in...)
			if err != nil {
				t.Fatal(err)
			}
			total := a + bv
			want := []int{total & 1, total >> 1 & 1, total >> 2 & 1}
			for k := range want {
				if got[k] != want[k] {
					t.Errorf("%d+%d out[%d]=%d want %d", a, bv, k, got[k], want[k])
				}
			}
		}
	}
}

// TestRandomCircuitsProperty compiles random well-formed netlists and
// checks the weird evaluation against the architectural reference.
func TestRandomCircuitsProperty(t *testing.T) {
	m := quiet(t)
	rng := noise.NewRNG(77)
	for trial := 0; trial < 12; trial++ {
		nIn := 2 + rng.Intn(3)
		s := NewCircuitSpec(nIn)
		nGates := 1 + rng.Intn(6)
		for g := 0; g < nGates; g++ {
			pick := func() WireID { return WireID(rng.Intn(s.NumWires())) }
			switch rng.Intn(4) {
			case 0:
				s.And(pick(), pick())
			case 1:
				s.Or(pick(), pick())
			case 2:
				s.Not(pick())
			case 3:
				s.Assign(pick())
			}
		}
		s.Output(WireID(s.NumWires() - 1))
		c, err := CompileCircuit(m, s)
		if err != nil {
			// Random netlists may exceed the fan-out bound; that is a
			// documented compile-time rejection, not a failure.
			if strings.Contains(err.Error(), "fan-out") {
				continue
			}
			t.Fatalf("trial %d: %v", trial, err)
		}
		for rep := 0; rep < 4; rep++ {
			in := make([]int, nIn)
			for i := range in {
				in[i] = rng.Bit()
			}
			got, err := c.Run(in...)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			want := c.Golden(in)
			if got[0] != want[0] {
				t.Errorf("trial %d in=%v: got %v want %v\n%s", trial, in, got, want, c.Program().Disassemble())
			}
		}
	}
}

// TestCircuitFireIsInvisible checks §4's stealth property on the
// compiled form: the fire section has no architectural boolean op and
// no store.
func TestCircuitFireIsInvisible(t *testing.T) {
	m := quiet(t)
	s := NewCircuitSpec(2)
	s.Output(s.Xor(0, 1))
	c, err := CompileCircuit(m, s)
	if err != nil {
		t.Fatal(err)
	}
	fire := c.Program().MustEntry("fire")
	read := c.Program().MustEntry("read0")
	for _, op := range []isa.Op{isa.AND, isa.OR, isa.XOR, isa.STORE, isa.STORR} {
		if c.Program().Uses(op, fire, read) {
			t.Errorf("fire section uses %v", op)
		}
	}
}

// TestCircuitUnderNoise: a compiled XOR keeps the Table 8 accuracy band
// under paper noise.
func TestCircuitUnderNoise(t *testing.T) {
	if testing.Short() {
		t.Skip("noise sweep is slow")
	}
	m, err := NewMachine(Options{Seed: 123, Noise: noise.Paper()})
	if err != nil {
		t.Fatal(err)
	}
	s := NewCircuitSpec(2)
	s.Output(s.Xor(0, 1))
	c, err := CompileCircuit(m, s)
	if err != nil {
		t.Fatal(err)
	}
	rng := noise.NewRNG(5)
	correct := 0
	const n = 3000
	for i := 0; i < n; i++ {
		a, b := rng.Bit(), rng.Bit()
		got, err := c.Run(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] == a^b {
			correct++
		}
	}
	acc := float64(correct) / n
	if acc < 0.88 || acc > 0.999 {
		t.Errorf("compiled XOR accuracy %.4f outside the expected band", acc)
	}
}

// TestCircuitEightBitAdder compiles a full 8-bit ripple-carry adder as
// ONE contiguous weird circuit (~100 chained transactions) and checks
// random sums — the depth/scale stress test for §4's composition claim.
func TestCircuitEightBitAdder(t *testing.T) {
	if testing.Short() {
		t.Skip("large circuit")
	}
	m := quiet(t)
	s := NewCircuitSpec(16) // a0..a7, b0..b7
	carry := WireID(-1)
	var sums []WireID
	for i := 0; i < 8; i++ {
		a, b := WireID(i), WireID(8+i)
		x := s.Xor(a, b)
		if carry < 0 {
			sums = append(sums, s.Assign(x))
			carry = s.And(a, b)
			continue
		}
		sums = append(sums, s.Xor(x, carry))
		carry = s.Or(s.And(a, b), s.And(carry, x))
	}
	for _, w := range sums {
		s.Output(w)
	}
	s.Output(carry)
	c, err := CompileCircuit(m, s)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("8-bit adder: %d chained transactions, %d wires", c.Transactions(), s.NumWires())

	rng := noise.NewRNG(31)
	for trial := 0; trial < 10; trial++ {
		av := int(rng.Uint64() & 0xFF)
		bv := int(rng.Uint64() & 0xFF)
		in := make([]int, 16)
		for i := 0; i < 8; i++ {
			in[i] = av >> i & 1
			in[8+i] = bv >> i & 1
		}
		got, err := c.Run(in...)
		if err != nil {
			t.Fatal(err)
		}
		total := av + bv
		for i := 0; i < 8; i++ {
			if got[i] != total>>i&1 {
				t.Errorf("%d+%d: sum bit %d = %d", av, bv, i, got[i])
			}
		}
		if got[8] != total>>8 {
			t.Errorf("%d+%d: carry = %d", av, bv, got[8])
		}
	}
}
