package walu_test

import (
	"fmt"

	"uwm/internal/core"
	"uwm/internal/walu"
)

// ExampleAdderSpec adds two 4-bit words on a circuit whose every gate
// is one of a contiguous chain of aborting transactions.
func ExampleAdderSpec() {
	m, err := core.NewMachine(core.Options{Seed: 6})
	if err != nil {
		panic(err)
	}
	spec, err := walu.AdderSpec(4, false)
	if err != nil {
		panic(err)
	}
	add, err := core.CompileCircuit(m, spec)
	if err != nil {
		panic(err)
	}
	// Inputs are a0..a3 then b0..b3, LSB first: 9 + 8.
	out, err := add.Run(1, 0, 0, 1, 0, 0, 0, 1)
	if err != nil {
		panic(err)
	}
	fmt.Printf("9+8 = sum bits %v carry %d\n", out[:4], out[4])
	// Output:
	// 9+8 = sum bits [1 0 0 0] carry 1
}
