// Package sha1wm implements SHA-1 on a μWM: every boolean operation and
// every addition of the compression function runs on weird gates
// (§5.2). SHA-1 is the paper's stress test for μWM fitness: a single
// gate error avalanches through the hash, so a correct digest certifies
// ~10⁵+ correct gate executions per block. Callers check a weird digest
// against crypto/sha1, the reference implementation the paper compares
// the hash output to (§6.5.2).
package sha1wm

import "encoding/binary"

// Size is the SHA-1 digest length in bytes.
const Size = 20

// BlockSize is the SHA-1 block length in bytes.
const BlockSize = 64

// initState is the SHA-1 initialization vector (FIPS 180-1).
var initState = [5]uint32{0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0}

// roundK returns the round constant for round t.
func roundK(t int) uint32 {
	switch {
	case t < 20:
		return 0x5A827999
	case t < 40:
		return 0x6ED9EBA1
	case t < 60:
		return 0x8F1BBCDC
	default:
		return 0xCA62C1D6
	}
}

// Pad returns the padded message: the input followed by 0x80, zeros,
// and the 64-bit big-endian bit length, a multiple of BlockSize long.
func Pad(msg []byte) []byte {
	bitLen := uint64(len(msg)) * 8
	padded := append([]byte(nil), msg...)
	padded = append(padded, 0x80)
	for len(padded)%BlockSize != 56 {
		padded = append(padded, 0)
	}
	var lenBytes [8]byte
	binary.BigEndian.PutUint64(lenBytes[:], bitLen)
	return append(padded, lenBytes[:]...)
}

// Blocks splits a padded message into BlockSize chunks.
func Blocks(padded []byte) [][]byte {
	out := make([][]byte, 0, len(padded)/BlockSize)
	for i := 0; i < len(padded); i += BlockSize {
		out = append(out, padded[i:i+BlockSize])
	}
	return out
}
