package sha1wm

import (
	"bytes"
	"crypto/sha1"
	"testing"
	"testing/quick"

	"uwm/internal/core"
	"uwm/internal/skelly"
)

func TestPadProperties(t *testing.T) {
	f := func(msg []byte) bool {
		p := Pad(msg)
		return len(p)%BlockSize == 0 && len(p) >= len(msg)+9 && p[len(msg)] == 0x80
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPadBoundaries(t *testing.T) {
	// Message lengths around the 56-byte padding boundary.
	for _, n := range []int{0, 1, 54, 55, 56, 57, 63, 64, 65, 119, 120} {
		msg := bytes.Repeat([]byte{0xAB}, n)
		p := Pad(msg)
		if len(p)%BlockSize != 0 {
			t.Errorf("len(Pad(%d bytes)) = %d, not a block multiple", n, len(p))
		}
	}
}

func weirdHasher(t *testing.T) *Hasher {
	t.Helper()
	m, err := core.NewMachine(core.Options{Seed: 3, TrainIterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	sk, err := skelly.New(m, skelly.FastConfig())
	if err != nil {
		t.Fatal(err)
	}
	return New(sk)
}

// TestWeirdSHA1OneBlock runs the full μWM SHA-1 on a single-block
// message and compares against crypto/sha1 — ~10⁵ correct gate
// executions are needed for this to pass.
func TestWeirdSHA1OneBlock(t *testing.T) {
	if testing.Short() {
		t.Skip("weird SHA-1 executes >100k gates")
	}
	h := weirdHasher(t)
	msg := []byte("abc")
	got, err := h.Sum(msg)
	if err != nil {
		t.Fatal(err)
	}
	want := sha1.Sum(msg)
	if got != want {
		t.Fatalf("weird SHA-1 = %x, want %x", got, want)
	}
	st := h.Stats()
	if st.VisibleValues == 0 || st.GateOps == 0 {
		t.Errorf("visibility stats empty: %+v", st)
	}
	ctr := h.Skelly().Counters("AND_AND_OR")
	if ctr.VoteOps == 0 {
		t.Error("AND_AND_OR counters empty; f1/f3 should use the composed gate")
	}
}

// TestWeirdSHA1TwoBlocks covers the multi-block path (the paper's
// experiment hashes a 2-block message).
func TestWeirdSHA1TwoBlocks(t *testing.T) {
	if testing.Short() {
		t.Skip("weird SHA-1 executes >200k gates")
	}
	h := weirdHasher(t)
	msg := bytes.Repeat([]byte("uwm!"), 20) // 80 bytes → 2 blocks after padding
	got, err := h.Sum(msg)
	if err != nil {
		t.Fatal(err)
	}
	if want := sha1.Sum(msg); got != want {
		t.Fatalf("weird SHA-1 = %x, want %x", got, want)
	}
}
