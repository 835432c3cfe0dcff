// Package walu builds arithmetic weird circuits, netlists whose every
// operation runs as one contiguous chain of aborting transactions on
// the μWM (§4's weird circuits, scaled up): ripple-carry adders,
// two's-complement subtractors, equality comparators and multiplexers.
//
// Each builder returns a core.CircuitSpec netlist, which
// core.CompileCircuit binds to a machine or circopt plans. An 8-bit
// adder is ~83 transactions; every intermediate value lives only in the
// data cache.
package walu

import (
	"fmt"

	"uwm/internal/core"
)

// fanout returns n wires carrying w's value. The circuit compiler
// bounds physical fan-out per wire (core.MaxFanout); fanout inserts
// assignment buffers so any logical fan-out compiles — the weird
// analogue of a fan-out buffer tree. The original wire is consumed
// exactly once (by the first buffer), so w may carry other uses.
func fanout(s *core.CircuitSpec, w core.WireID, n int) []core.WireID {
	out := make([]core.WireID, 0, n)
	cur := s.Assign(w) // single tap on the original
	for n > 0 {
		if n <= core.MaxFanout {
			for i := 0; i < n; i++ {
				out = append(out, cur)
			}
			return out
		}
		// Each buffer level yields MaxFanout-1 taps plus one feed to
		// the next buffer.
		taps := core.MaxFanout - 1
		for i := 0; i < taps; i++ {
			out = append(out, cur)
		}
		n -= taps
		cur = s.Assign(cur)
	}
	return out
}

// wireUse hands out successive taps from a fanout allocation.
type wireUse struct {
	taps []core.WireID
	next int
}

func (u *wireUse) take() core.WireID {
	w := u.taps[u.next]
	u.next++
	return w
}

// AdderSpec builds an n-bit ripple-carry adder netlist with inputs
// a0..a(n-1), b0..b(n-1) and an optional carry-in as the last input.
// Outputs are sum bits LSB-first followed by the carry-out.
func AdderSpec(bits int, carryIn bool) (*core.CircuitSpec, error) {
	if bits < 1 || bits > 16 {
		return nil, fmt.Errorf("walu: adder width %d outside [1,16]", bits)
	}
	nIn := 2 * bits
	if carryIn {
		nIn++
	}
	s := core.NewCircuitSpec(nIn)
	carry := core.WireID(-1)
	if carryIn {
		carry = core.WireID(2 * bits)
	}
	var sums []core.WireID
	for i := 0; i < bits; i++ {
		a, b := core.WireID(i), core.WireID(bits+i)
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
	return s, nil
}

// SubtractorSpec builds an n-bit two's-complement subtractor
// (a − b = a + ¬b + 1): inputs a0.., b0..; outputs are difference bits
// LSB-first followed by the borrow-free flag (carry-out; 1 means
// a ≥ b).
func SubtractorSpec(bits int) (*core.CircuitSpec, error) {
	if bits < 1 || bits > 16 {
		return nil, fmt.Errorf("walu: subtractor width %d outside [1,16]", bits)
	}
	s := core.NewCircuitSpec(2 * bits)
	carry := core.WireID(-1)
	var diffs []core.WireID
	for i := 0; i < bits; i++ {
		a := core.WireID(i)
		nb := s.Not(core.WireID(bits + i))
		x := s.Xor(a, nb)
		if carry < 0 {
			// carry-in = 1: sum bit = x ^ 1 = ¬x; carry = a | ¬b.
			diffs = append(diffs, s.Not(x))
			carry = s.Or(a, nb)
			continue
		}
		diffs = append(diffs, s.Xor(x, carry))
		carry = s.Or(s.And(a, nb), s.And(carry, x))
	}
	for _, w := range diffs {
		s.Output(w)
	}
	s.Output(carry)
	return s, nil
}

// EqualSpec builds an n-bit equality comparator: output 1 iff a == b,
// computed as an AND tree over per-bit XNORs.
func EqualSpec(bits int) (*core.CircuitSpec, error) {
	if bits < 1 || bits > 16 {
		return nil, fmt.Errorf("walu: comparator width %d outside [1,16]", bits)
	}
	s := core.NewCircuitSpec(2 * bits)
	var terms []core.WireID
	for i := 0; i < bits; i++ {
		terms = append(terms, s.Not(s.Xor(core.WireID(i), core.WireID(bits+i))))
	}
	for len(terms) > 1 {
		var next []core.WireID
		for i := 0; i+1 < len(terms); i += 2 {
			next = append(next, s.And(terms[i], terms[i+1]))
		}
		if len(terms)%2 == 1 {
			next = append(next, terms[len(terms)-1])
		}
		terms = next
	}
	s.Output(terms[0])
	return s, nil
}

// MuxSpec builds an n-bit 2:1 multiplexer: inputs a0.., b0.., sel;
// outputs sel ? a : b per bit. The select line is fanned out through
// assignment buffers.
func MuxSpec(bits int) (*core.CircuitSpec, error) {
	if bits < 1 || bits > 16 {
		return nil, fmt.Errorf("walu: mux width %d outside [1,16]", bits)
	}
	s := core.NewCircuitSpec(2*bits + 1)
	sel := core.WireID(2 * bits)
	nsel := s.Not(sel) // consumes one tap of sel
	selTaps := &wireUse{taps: fanout(s, sel, bits)}
	nselTaps := &wireUse{taps: fanout(s, nsel, bits)}
	for i := 0; i < bits; i++ {
		a, b := core.WireID(i), core.WireID(bits+i)
		s.Output(s.Or(s.And(a, selTaps.take()), s.And(b, nselTaps.take())))
	}
	return s, nil
}
