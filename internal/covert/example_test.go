package covert_test

import (
	"fmt"

	"uwm/internal/core"
	"uwm/internal/covert"
	"uwm/internal/noise"
)

// Example is the covert channel over weird registers (paper §3.1): two
// parties that never exchange architectural data communicate through a
// shared weird register. It sends a byte string over a data-cache WR,
// shows the volatile mul-contention WR losing a bit that is read too
// late, measures the channel, and recovers a secret by flush+reload.
func Example() {
	m, err := core.NewMachine(core.Options{Seed: 99, TrainIterations: 4})
	if err != nil {
		panic(err)
	}

	// A d-cache weird register as the shared medium. Reading a DC-WR
	// is invasive (§3.1), so sender and receiver alternate bit by bit.
	dc, err := core.NewDCWR(m)
	if err != nil {
		panic(err)
	}
	message := []byte("covert!")
	var got []byte
	for _, b := range message {
		var out byte
		for i := 0; i < 8; i++ {
			if err := dc.Write(int(b >> uint(i) & 1)); err != nil {
				panic(err)
			}
			bit, err := dc.Read()
			if err != nil {
				panic(err)
			}
			out |= byte(bit) << uint(i)
		}
		got = append(got, out)
	}
	fmt.Printf("sent %q through L1D residency, received %q\n", message, got)

	// Volatility: a mul-contention register holds its bit for a few
	// hundred cycles only.
	mul, err := core.NewMulWR(m)
	if err != nil {
		panic(err)
	}
	if err := mul.Write(1); err != nil {
		panic(err)
	}
	bit, err := mul.Read()
	if err != nil {
		panic(err)
	}
	fmt.Printf("mul-contention WR read right after write(1): %d\n", bit)
	if err := mul.Write(1); err != nil {
		panic(err)
	}
	for i := 0; i < 8; i++ {
		if err := mul.Idle(); err != nil { // ~250 idle cycles each
			panic(err)
		}
	}
	if bit, err = mul.Read(); err != nil {
		panic(err)
	}
	fmt.Printf("mul-contention WR read after ~2000 idle cycles: %d\n", bit)

	// Capacity: the covert package frames any weird register into a
	// measured channel.
	rep, err := covert.Measure(m, covert.NewChannel(dc, 1), 4000, noise.NewRNG(2))
	if err != nil {
		panic(err)
	}
	fmt.Printf("DC-WR channel: %s → %.0f bits/s at 2.3 GHz\n", rep, rep.BitsPerSecond(2.3e9))

	// The classic side channel the paper builds on (§2): a victim whose
	// table index is a secret, an attacker who only flushes and times
	// shared lines.
	fr, err := covert.NewFlushReload(m)
	if err != nil {
		panic(err)
	}
	fr.PlantSecret(0xC3)
	secret, err := fr.RecoverSecret(3)
	if err != nil {
		panic(err)
	}
	fmt.Printf("flush+reload: planted 0xc3, recovered %#02x from timing alone\n", secret)
	// Output:
	// sent "covert!" through L1D residency, received "covert!"
	// mul-contention WR read right after write(1): 1
	// mul-contention WR read after ~2000 idle cycles: 0
	// DC-WR channel: 4000 bits, 0 errors (0.0000), 669540 cycles → 13740777 bits/s at 2.3 GHz
	// flush+reload: planted 0xc3, recovered 0xc3 from timing alone
}
