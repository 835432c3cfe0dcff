package skelly

import (
	"testing"

	"uwm/internal/core"
	"uwm/internal/noise"
)

func benchSkelly(b *testing.B, cfg Config) *Skelly {
	b.Helper()
	m, err := core.NewMachine(core.Options{Seed: 1, TrainIterations: 3})
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(m, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkGateOpNoRedundancy measures one logical AND at s=1/n=1.
func BenchmarkGateOpNoRedundancy(b *testing.B) {
	s := benchSkelly(b, FastConfig())
	rng := noise.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.And(rng.Bit(), rng.Bit()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGateOpPaperRedundancy measures one logical AND at the
// paper's s=10/k=3/n=5 (50 weird-gate activations per op).
func BenchmarkGateOpPaperRedundancy(b *testing.B) {
	s := benchSkelly(b, Config{S: 10, K: 3, N: 5, Verify: true})
	rng := noise.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.And(rng.Bit(), rng.Bit()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkXorComposite measures the 3-gate XOR composition.
func BenchmarkXorComposite(b *testing.B) {
	s := benchSkelly(b, FastConfig())
	rng := noise.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Xor(rng.Bit(), rng.Bit()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullAdder measures the §5.2 full adder (7 gate ops).
func BenchmarkFullAdder(b *testing.B) {
	s := benchSkelly(b, FastConfig())
	rng := noise.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.FullAdder(rng.Bit(), rng.Bit(), rng.Bit()); err != nil {
			b.Fatal(err)
		}
	}
}
