package walu

import (
	"testing"

	"uwm/internal/core"
	"uwm/internal/noise"
)

// wordCircuit is one compiled n-bit operation of the weird ALU.
type wordCircuit struct {
	t    *testing.T
	c    *core.Circuit
	bits int
}

// compile builds spec(bits) on a fresh machine.
func compile(t *testing.T, bits int, spec func(int) (*core.CircuitSpec, error)) wordCircuit {
	t.Helper()
	m, err := core.NewMachine(core.Options{Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	s, err := spec(bits)
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.CompileCircuit(m, s)
	if err != nil {
		t.Fatal(err)
	}
	return wordCircuit{t, c, bits}
}

// run feeds each word's low bits, LSB first, then the extra bits, and
// returns the outputs.
func (w wordCircuit) run(words []uint64, extra ...int) []int {
	w.t.Helper()
	var in []int
	for _, v := range words {
		for i := 0; i < w.bits; i++ {
			in = append(in, int(v>>uint(i)&1))
		}
	}
	out, err := w.c.Run(append(in, extra...)...)
	if err != nil {
		w.t.Fatal(err)
	}
	return out
}

// word reassembles LSB-first bits.
func word(bits []int) uint64 { return uint64(wordOfBits(bits)) }

func adder(bits int) (*core.CircuitSpec, error) { return AdderSpec(bits, false) }

func TestAdd4BitExhaustive(t *testing.T) {
	add := compile(t, 4, adder)
	for x := uint64(0); x < 16; x++ {
		for y := uint64(0); y < 16; y++ {
			out := add.run([]uint64{x, y})
			sum, carry := word(out[:4]), out[4]
			total := x + y
			if sum != total&0xF || carry != int(total>>4) {
				t.Errorf("%d+%d = %d carry %d", x, y, sum, carry)
			}
		}
	}
}

func TestSub4BitExhaustive(t *testing.T) {
	sub := compile(t, 4, SubtractorSpec)
	for x := uint64(0); x < 16; x++ {
		for y := uint64(0); y < 16; y++ {
			out := sub.run([]uint64{x, y})
			diff, geq := word(out[:4]), out[4]
			if diff != (x-y)&0xF {
				t.Errorf("%d-%d = %d", x, y, diff)
			}
			wantGeq := 0
			if x >= y {
				wantGeq = 1
			}
			if geq != wantGeq {
				t.Errorf("%d>=%d flag = %d", x, y, geq)
			}
		}
	}
}

func TestEqual4BitExhaustive(t *testing.T) {
	eq := compile(t, 4, EqualSpec)
	for x := uint64(0); x < 16; x++ {
		for y := uint64(0); y < 16; y++ {
			if got := eq.run([]uint64{x, y})[0] == 1; got != (x == y) {
				t.Errorf("Equal(%d,%d) = %v", x, y, got)
			}
		}
	}
}

func TestMux4Bit(t *testing.T) {
	mux := compile(t, 4, MuxSpec)
	cases := []struct {
		sel  int
		x, y uint64
	}{
		{1, 0xA, 0x5}, {0, 0xA, 0x5}, {1, 0xF, 0x0}, {0, 0x0, 0xF}, {1, 0x3, 0x3},
	}
	for _, c := range cases {
		got := word(mux.run([]uint64{c.x, c.y}, c.sel)[:4])
		want := c.y
		if c.sel == 1 {
			want = c.x
		}
		if got != want {
			t.Errorf("Mux(%d,%#x,%#x) = %#x, want %#x", c.sel, c.x, c.y, got, want)
		}
	}
}

func TestEightBitRandom(t *testing.T) {
	if testing.Short() {
		t.Skip("8-bit circuits are large")
	}
	add, sub, eq := compile(t, 8, adder), compile(t, 8, SubtractorSpec), compile(t, 8, EqualSpec)
	t.Logf("8-bit transactions: add=%d sub=%d equal=%d", add.c.Transactions(), sub.c.Transactions(), eq.c.Transactions())
	rng := noise.NewRNG(17)
	for i := 0; i < 12; i++ {
		x, y := rng.Uint64()&0xFF, rng.Uint64()&0xFF
		out := add.run([]uint64{x, y})
		if sum, carry, total := word(out[:8]), out[8], x+y; sum != total&0xFF || carry != int(total>>8) {
			t.Errorf("%d+%d = %d/%d", x, y, sum, carry)
		}
		if diff := word(sub.run([]uint64{x, y})[:8]); diff != (x-y)&0xFF {
			t.Errorf("%d-%d = %d", x, y, diff)
		}
		if eqv := eq.run([]uint64{x, y})[0] == 1; eqv != (x == y) {
			t.Errorf("Equal(%d,%d) = %v", x, y, eqv)
		}
	}
	// Equality fast-path: identical operands.
	if eqv := eq.run([]uint64{0x5A, 0x5A})[0] == 1; !eqv {
		t.Error("Equal(x,x) = false")
	}
}

func TestAdderWithCarryIn(t *testing.T) {
	m, err := core.NewMachine(core.Options{Seed: 62})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := AdderSpec(3, true)
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.CompileCircuit(m, spec)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 128; v++ {
		x, y, cin := v&7, v>>3&7, v>>6&1
		in := make([]int, 7)
		for i := 0; i < 3; i++ {
			in[i] = x >> i & 1
			in[3+i] = y >> i & 1
		}
		in[6] = cin
		got, err := c.Run(in...)
		if err != nil {
			t.Fatal(err)
		}
		total := x + y + cin
		for i := 0; i < 3; i++ {
			if got[i] != total>>i&1 {
				t.Errorf("%d+%d+%d sum bit %d = %d", x, y, cin, i, got[i])
			}
		}
		if got[3] != total>>3 {
			t.Errorf("%d+%d+%d carry = %d", x, y, cin, got[3])
		}
	}
}

func TestWidthValidation(t *testing.T) {
	for _, f := range []func(int) (*core.CircuitSpec, error){
		func(b int) (*core.CircuitSpec, error) { return AdderSpec(b, false) },
		SubtractorSpec,
		EqualSpec,
		MuxSpec,
	} {
		if _, err := f(0); err == nil {
			t.Error("width 0 accepted")
		}
		if _, err := f(17); err == nil {
			t.Error("width 17 accepted")
		}
	}
}

// TestFanoutHelper checks the buffer-tree fan-out used by MuxSpec.
func TestFanoutHelper(t *testing.T) {
	m, err := core.NewMachine(core.Options{Seed: 63})
	if err != nil {
		t.Fatal(err)
	}
	s := core.NewCircuitSpec(1)
	taps := fanout(s, 0, 9) // exceeds MaxFanout: needs buffers
	if len(taps) != 9 {
		t.Fatalf("taps = %d", len(taps))
	}
	// AND-tree all taps together: result must equal the input.
	acc := taps[0]
	for _, w := range taps[1:] {
		acc = s.And(acc, w)
	}
	s.Output(acc)
	c, err := core.CompileCircuit(m, s)
	if err != nil {
		t.Fatal(err)
	}
	for _, bit := range []int{0, 1} {
		got, err := c.Run(bit)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != bit {
			t.Errorf("fanout-AND(%d) = %d", bit, got[0])
		}
	}
}
