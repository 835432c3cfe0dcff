package wmapt

import (
	"bytes"
	"crypto/aes"
	"fmt"

	"uwm/internal/sha1wm"
	"uwm/internal/skelly"
)

// HashLock is the paper's second obfuscation system (§5.2): the
// conditional code obfuscation of Sharif et al., with the cryptographic
// hash replaced by the μWM SHA-1. The payload is encrypted under a key
// derived from the trigger input; only the *hash* of the trigger is
// stored, so static analysis cannot recover the trigger or the payload,
// and — the paper's addition — the hash itself is computed by weird
// gates, so the decoding "will work only in specific microarchitectural
// environments": an emulator without transient execution can never even
// evaluate the trigger condition.
type HashLock struct {
	hasher *sha1wm.Hasher
	env    *Env

	triggerHash [sha1wm.Size]byte
	iv          [aes.BlockSize]byte
	encrypted   []byte
	fired       bool
}

// NewHashLock builds a hash-locked payload container over a weird
// hasher.
func NewHashLock(h *sha1wm.Hasher, env *Env) *HashLock {
	return &HashLock{hasher: h, env: env}
}

// keyFromTrigger derives the AES key: the leading bytes of a second
// (domain-separated) weird hash of the trigger, so knowing the stored
// condition hash does not reveal the key.
func (hl *HashLock) keyFromTrigger(trigger []byte) ([]byte, error) {
	d, err := hl.hasher.Sum(append([]byte("uwm-key:"), trigger...))
	if err != nil {
		return nil, err
	}
	return d[:keySize], nil
}

// Install encrypts the payload under the trigger-derived key and stores
// only the trigger's hash. The trigger bytes themselves are discarded.
func (hl *HashLock) Install(p Payload, trigger []byte) error {
	digest, err := hl.hasher.Sum(trigger)
	if err != nil {
		return err
	}
	hl.triggerHash = digest

	key, err := hl.keyFromTrigger(trigger)
	if err != nil {
		return err
	}
	plain, err := EncodePayload(p)
	if err != nil {
		return err
	}
	copy(hl.iv[:], digest[4:]) // public IV derived from the stored hash
	enc, err := ctr(key, hl.iv[:], plain)
	if err != nil {
		return err
	}
	hl.encrypted = enc
	hl.fired = false
	return nil
}

// TriggerHash exposes the stored condition hash — the only
// trigger-derived value an analyzer can find in the binary.
func (hl *HashLock) TriggerHash() [sha1wm.Size]byte { return hl.triggerHash }

// HandleInput hashes a candidate trigger on the weird machine and, on a
// match, derives the key, decrypts and executes the payload. A non-match
// (or a gate-error-corrupted hash) leaves no trace beyond the weird
// hash's own microarchitectural noise.
func (hl *HashLock) HandleInput(candidate []byte) (*Result, error) {
	if hl.encrypted == nil {
		return nil, ErrNotInstalled
	}
	if hl.fired {
		return nil, nil
	}
	digest, err := hl.hasher.Sum(candidate)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(digest[:], hl.triggerHash[:]) {
		return nil, nil // silent
	}
	key, err := hl.keyFromTrigger(candidate)
	if err != nil {
		return nil, err
	}
	plain, err := ctr(key, hl.iv[:], hl.encrypted)
	if err != nil {
		return nil, err
	}
	payload, err := DecodePayload(plain)
	if err != nil {
		// The hash matched but the key hash picked up a gate error:
		// like the APT, the garbage faults and rolls back silently.
		return nil, nil
	}
	events, err := payload.Execute(hl.env)
	if err != nil {
		return nil, err
	}
	hl.fired = true
	return &Result{Events: events, Payload: payload.Name()}, nil
}

// NewHashLockSystem wires a complete system: a weird machine, a skelly
// library at the given redundancy, the hasher and the container.
func NewHashLockSystem(sk *skelly.Skelly, env *Env) (*HashLock, error) {
	if sk == nil {
		return nil, fmt.Errorf("wmapt: nil skelly library")
	}
	return NewHashLock(sha1wm.New(sk), env), nil
}
