package skelly

import (
	"errors"
	"testing"
	"testing/quick"

	"uwm/internal/core"
	"uwm/internal/cpu"
	"uwm/internal/noise"
	"uwm/internal/trace"
)

func fastSkelly(t *testing.T) *Skelly {
	t.Helper()
	m, err := core.NewMachine(core.Options{Seed: 11, TrainIterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(m, FastConfig())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBitPrimitives(t *testing.T) {
	s := fastSkelly(t)
	for a := 0; a < 2; a++ {
		for b := 0; b < 2; b++ {
			if v, err := s.And(a, b); err != nil || v != a&b {
				t.Errorf("And(%d,%d)=%d,%v", a, b, v, err)
			}
			if v, err := s.Or(a, b); err != nil || v != a|b {
				t.Errorf("Or(%d,%d)=%d,%v", a, b, v, err)
			}
			if v, err := s.Nand(a, b); err != nil || v != 1-a&b {
				t.Errorf("Nand(%d,%d)=%d,%v", a, b, v, err)
			}
			if v, err := s.Xor(a, b); err != nil || v != a^b {
				t.Errorf("Xor(%d,%d)=%d,%v", a, b, v, err)
			}
		}
	}
	if v, err := s.Not(0); err != nil || v != 1 {
		t.Errorf("Not(0)=%d,%v", v, err)
	}
	if v, err := s.Not(1); err != nil || v != 0 {
		t.Errorf("Not(1)=%d,%v", v, err)
	}
}

func TestFullAdderExhaustive(t *testing.T) {
	s := fastSkelly(t)
	for a := 0; a < 2; a++ {
		for b := 0; b < 2; b++ {
			for c := 0; c < 2; c++ {
				sum, carry, err := s.FullAdder(a, b, c)
				if err != nil {
					t.Fatal(err)
				}
				if want := a + b + c; sum != want&1 || carry != want>>1 {
					t.Errorf("FullAdder(%d,%d,%d) = (%d,%d)", a, b, c, sum, carry)
				}
			}
		}
	}
}

func TestAndAndOrExhaustive(t *testing.T) {
	s := fastSkelly(t)
	for v := 0; v < 16; v++ {
		a, b, c, d := v&1, v>>1&1, v>>2&1, v>>3&1
		got, err := s.AndAndOr(a, b, c, d)
		if err != nil {
			t.Fatal(err)
		}
		if want := a&b | c&d; got != want {
			t.Errorf("AndAndOr(%d,%d,%d,%d)=%d want %d", a, b, c, d, got, want)
		}
	}
}

func TestWord32RoundTrip(t *testing.T) {
	f := func(v uint32) bool { return Word32(Bits32(v)) == v }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRotShift(t *testing.T) {
	f := func(v uint32, n uint8) bool {
		k := uint(n) & 31
		return RotL32(v, k) == v<<k|v>>((32-k)&31)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func Test32BitOps(t *testing.T) {
	s := fastSkelly(t)
	cases := []struct{ a, b uint32 }{
		{0, 0},
		{0xffffffff, 0},
		{0xdeadbeef, 0x12345678},
		{0x80000000, 0x80000000},
		{1, 0xffffffff},
	}
	for _, c := range cases {
		if v, err := s.Xor32(c.a, c.b); err != nil || v != c.a^c.b {
			t.Errorf("Xor32(%#x,%#x)=%#x,%v", c.a, c.b, v, err)
		}
		if v, err := s.Add32(c.a, c.b); err != nil || v != c.a+c.b {
			t.Errorf("Add32(%#x,%#x)=%#x,%v", c.a, c.b, v, err)
		}
	}
	if v, err := s.Not32(0xdeadbeef); err != nil || v != ^uint32(0xdeadbeef) {
		t.Errorf("Not32 = %#x, %v", v, err)
	}
}

// TestVotingRecoversFromNoise checks that the paper's s/k/n redundancy
// turns noisy single-gate executions into reliable logical operations.
func TestVotingRecoversFromNoise(t *testing.T) {
	if testing.Short() {
		t.Skip("redundancy sweep is slow")
	}
	m, err := core.NewMachine(core.Options{Seed: 5, Noise: noise.PaperIsolated(), TrainIterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(m, Config{S: 3, K: 2, N: 3, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := noise.NewRNG(77)
	wrong := 0
	const ops = 600
	for i := 0; i < ops; i++ {
		a, b := rng.Bit(), rng.Bit()
		v, err := s.Xor(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if v != a^b {
			wrong++
		}
	}
	if wrong > 2 {
		t.Errorf("voted XOR wrong %d/%d times; redundancy should make errors rare", wrong, ops)
	}
	ctr := s.Counters("AND")
	if ctr.VoteOps == 0 || ctr.MedianOps != ctr.VoteOps*3 {
		t.Errorf("instrumentation inconsistent: %+v", ctr)
	}
}

func TestCountersAndConfigValidation(t *testing.T) {
	s := fastSkelly(t)
	if _, err := s.And(1, 1); err != nil {
		t.Fatal(err)
	}
	if c := s.Counters("AND"); c.VoteOps != 1 || c.MedianOps != 1 {
		t.Errorf("counters = %+v", c)
	}
	if _, err := New(s.Machine(), Config{S: 0, K: 1, N: 1}); err == nil {
		t.Error("expected error for s=0")
	}
	if _, err := New(s.Machine(), Config{S: 1, K: 2, N: 1}); err == nil {
		t.Error("expected error for k>n")
	}
}

// TestAbortOnError surfaces vote failures as errors, the paper's
// "allow skelly to abort when an incorrect logical operation is
// detected" mode. A zero-length TSX window makes every gate output 0,
// so AND(1,1) must trip it.
func TestAbortOnError(t *testing.T) {
	cfg := cpu.DefaultConfig()
	cfg.TSXWindow = 0 // irrelevant for BP gates but harmless
	m, err := core.NewMachine(core.Options{Seed: 19, TrainIterations: 1, CPU: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	// Single-iteration training cannot re-flip the 2-bit counters
	// reliably, so some ops vote wrong; AbortOnError must report it.
	s, err := New(m, Config{S: 1, K: 1, N: 1, Verify: true, AbortOnError: true})
	if err != nil {
		t.Fatal(err)
	}
	var gateErr *GateError
	sawError := false
	for i := 0; i < 64 && !sawError; i++ {
		_, err := s.And(i&1, 1-i&1&1)
		if err != nil {
			if !errors.As(err, &gateErr) {
				t.Fatalf("unexpected error type %T: %v", err, err)
			}
			sawError = true
		}
		_, err = s.Nand(1, 1)
		if err != nil {
			if !errors.As(err, &gateErr) {
				t.Fatalf("unexpected error type %T: %v", err, err)
			}
			sawError = true
		}
	}
	if !sawError {
		t.Skip("degraded config happened to stay correct; acceptable")
	}
	if gateErr.Gate == "" || gateErr.Error() == "" {
		t.Errorf("gate error missing details: %+v", gateErr)
	}
}

// TestOnVoteErrorHook verifies the diagnostics hook fires.
func TestOnVoteErrorHook(t *testing.T) {
	m, err := core.NewMachine(core.Options{Seed: 23, TrainIterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(m, Config{S: 1, K: 1, N: 1, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	fired := 0
	s.OnVoteError = func(gate string, in []int, got, want int) { fired++ }
	for i := 0; i < 64; i++ {
		if _, err := s.And(1, i&1); err != nil {
			t.Fatal(err)
		}
	}
	c := s.Counters("AND")
	if int(c.VoteOps-c.VoteCorrect) != fired {
		t.Errorf("hook fired %d times for %d errors", fired, c.VoteOps-c.VoteCorrect)
	}
}

// TestGateOpAllocs guards the redundancy loop at the engine's setting
// (s=3, k=1, n=1, verified): the median is taken on the library's own
// sample buffer and the inputs stay on the caller's stack, so a logical
// operation allocates nothing, untraced or under a live recorder.
func TestGateOpAllocs(t *testing.T) {
	for _, sink := range []*trace.Recorder{nil, trace.NewRecorder(64)} {
		opts := core.Options{Seed: 11, TrainIterations: 4}
		if sink != nil {
			opts.Sink = sink
		}
		m, err := core.NewMachine(opts)
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(m, Config{S: 3, K: 1, N: 1, Verify: true})
		if err != nil {
			t.Fatal(err)
		}
		i := 0
		op := func() {
			if _, err := s.And(i&1, i>>1&1); err != nil {
				t.Fatal(err)
			}
			if _, err := s.AndAndOr(i&1, i>>1&1, i>>2&1, i>>3&1); err != nil {
				t.Fatal(err)
			}
			i++
		}
		if allocs := testing.AllocsPerRun(100, op); allocs != 0 {
			t.Errorf("traced=%v: And+AndAndOr allocate %v per run, want 0", sink != nil, allocs)
		}
	}
}
