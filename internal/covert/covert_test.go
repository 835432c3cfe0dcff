package covert

import (
	"bytes"
	"testing"

	"uwm/internal/core"
	"uwm/internal/noise"
	"uwm/internal/trace"
)

func quietMachine(t *testing.T) *core.Machine {
	t.Helper()
	m, err := core.NewMachine(core.Options{Seed: 7, TrainIterations: 4})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestChannelOverDCWR(t *testing.T) {
	m := quietMachine(t)
	wr, err := core.NewDCWR(m)
	if err != nil {
		t.Fatal(err)
	}
	c := NewChannel(wr, 1)
	msg := []byte("weird covert channel")
	got, err := c.Transfer(msg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Errorf("transfer = %q, want %q", got, msg)
	}
}

func TestChannelOverBPWR(t *testing.T) {
	m := quietMachine(t)
	wr, err := core.NewBPWR(m)
	if err != nil {
		t.Fatal(err)
	}
	c := NewChannel(wr, 1)
	msg := []byte{0x5A, 0xFF, 0x00}
	got, err := c.Transfer(msg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Errorf("transfer over BP-WR = %x, want %x", got, msg)
	}
}

func TestChannelUnderNoiseWithRedundancy(t *testing.T) {
	m, err := core.NewMachine(core.Options{Seed: 9, Noise: noise.Paper(), TrainIterations: 4})
	if err != nil {
		t.Fatal(err)
	}
	wr, err := core.NewDCWR(m)
	if err != nil {
		t.Fatal(err)
	}
	rng := noise.NewRNG(3)
	raw, err := Measure(m, NewChannel(wr, 1), 2000, rng)
	if err != nil {
		t.Fatal(err)
	}
	red, err := Measure(m, NewChannel(wr, 3), 2000, rng)
	if err != nil {
		t.Fatal(err)
	}
	if raw.ErrorRate() > 0.05 {
		t.Errorf("raw DC-WR channel error rate %.4f too high", raw.ErrorRate())
	}
	if red.ErrorRate() > raw.ErrorRate() && red.ErrorRate() > 0.002 {
		t.Errorf("redundancy did not help: raw %.4f vs x3 %.4f", raw.ErrorRate(), red.ErrorRate())
	}
	if red.Cycles <= raw.Cycles {
		t.Error("redundancy should cost cycles")
	}
	if raw.BitsPerSecond(2.3e9) <= 0 {
		t.Error("throughput not positive")
	}
}

func TestFlushReloadRecoversSecrets(t *testing.T) {
	m := quietMachine(t)
	fr, err := NewFlushReload(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, secret := range []byte{0x00, 0x0F, 0xA5, 0xFF, 0x42, 0x99} {
		fr.PlantSecret(secret)
		got, err := fr.RecoverSecret(1)
		if err != nil {
			t.Fatal(err)
		}
		if got != secret {
			t.Errorf("recovered %#02x, want %#02x", got, secret)
		}
	}
}

func TestFlushReloadUnderNoise(t *testing.T) {
	m, err := core.NewMachine(core.Options{Seed: 11, Noise: noise.Paper()})
	if err != nil {
		t.Fatal(err)
	}
	fr, err := NewFlushReload(m)
	if err != nil {
		t.Fatal(err)
	}
	rng := noise.NewRNG(5)
	correct := 0
	const trials = 40
	for i := 0; i < trials; i++ {
		secret := byte(rng.Uint64())
		fr.PlantSecret(secret)
		got, err := fr.RecoverSecret(3) // majority of 3 rides out outliers
		if err != nil {
			t.Fatal(err)
		}
		if got == secret {
			correct++
		}
	}
	if correct < trials*9/10 {
		t.Errorf("noisy recovery %d/%d below 90%%", correct, trials)
	}
}

func TestChannelRepsDefault(t *testing.T) {
	m := quietMachine(t)
	wr, err := core.NewDCWR(m)
	if err != nil {
		t.Fatal(err)
	}
	c := NewChannel(wr, 0)
	if c.reps != 1 {
		t.Errorf("reps = %d", c.reps)
	}
}

func TestSpectreV1LeaksSecret(t *testing.T) {
	m := quietMachine(t)
	sp, err := NewSpectreV1(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, secret := range []byte{0x00, 0x42, 0xA7, 0xFF} {
		sp.PlantSecret(secret)
		got, err := sp.LeakSecret(3)
		if err != nil {
			t.Fatal(err)
		}
		if got != secret {
			t.Errorf("leaked %#02x, want %#02x", got, secret)
		}
	}
}

// TestSpectreV1ArchitecturallyClean verifies the victim never
// architecturally exposes the secret: the out-of-bounds call's branch
// correctly skips the body, so no committed instruction reads it.
func TestSpectreV1ArchitecturallyClean(t *testing.T) {
	m := quietMachine(t)
	sp, err := NewSpectreV1(m)
	if err != nil {
		t.Fatal(err)
	}
	sp.PlantSecret(0x42)
	rec := trace.NewRecorder(0)
	m.CPU().SetSink(rec)
	if _, err := sp.LeakSecret(2); err != nil {
		t.Fatal(err)
	}
	m.CPU().SetSink(nil)
	for _, e := range rec.Architectural() {
		if e.Kind == trace.KindRegWrite && e.Value == 0x42 && e.Text == "r4" {
			t.Fatal("secret value committed architecturally during the attack")
		}
	}
}

func TestSpectreV1UnderNoise(t *testing.T) {
	if testing.Short() {
		t.Skip("noisy spectre sweep")
	}
	m, err := core.NewMachine(core.Options{Seed: 13, Noise: noise.Paper()})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := NewSpectreV1(m)
	if err != nil {
		t.Fatal(err)
	}
	rng := noise.NewRNG(6)
	correct := 0
	const trials = 25
	for i := 0; i < trials; i++ {
		secret := byte(rng.Uint64())
		sp.PlantSecret(secret)
		got, err := sp.LeakSecret(5)
		if err != nil {
			t.Fatal(err)
		}
		if got == secret {
			correct++
		}
	}
	if correct < trials*8/10 {
		t.Errorf("noisy spectre recovery %d/%d below 80%%", correct, trials)
	}
}
