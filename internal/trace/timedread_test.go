package trace

import (
	"strings"
	"testing"
	"unicode"
)

func TestParseTimedRead(t *testing.T) {
	gate, out, bit, ok := ParseTimedRead("gate=TSX_AND out=2 bit=1")
	if !ok || gate != "TSX_AND" || out != 2 || bit != 1 {
		t.Errorf("parse = %q %d %d %v", gate, out, bit, ok)
	}
	for _, bad := range []string{
		"", "gate=", "nope", "window open", "gate=X out=y bit=z",
		"gate=X out=0 bit=7", "gate=X out=-1 bit=0", "gate=X bit=1",
		"out=0 bit=1", "gate= out=0 bit=1", "gate=X out=0 bit=1 extra",
		"gate=X\tY out=0 bit=1",
	} {
		if _, _, _, ok := ParseTimedRead(bad); ok {
			t.Errorf("parse accepted %q", bad)
		}
	}
}

// engineGates names every gate the job engine runs.
var engineGates = []string{"AND", "OR", "NAND", "AND_AND_OR", "TSX_AND", "TSX_OR", "TSX_XOR", "TSX_ASSIGN"}

// FuzzParseTimedRead checks the parser never panics, that every
// well-formed payload survives a format → parse round trip, and that a
// negative output index or a non-binary bit never parses.
func FuzzParseTimedRead(f *testing.F) {
	for i, g := range engineGates {
		f.Add(g, i, i&1)
	}
	f.Add("X", -1, 0)
	f.Add("X", 0, 2)
	f.Add("a b", 0, 1)
	f.Fuzz(func(t *testing.T, gate string, out, bit int) {
		text := FormatTimedRead(gate, out, bit)
		g, o, b, ok := ParseTimedRead(text)
		valid := gate != "" && !strings.ContainsFunc(gate, unicode.IsSpace) && out >= 0 && (bit == 0 || bit == 1)
		if ok != valid {
			t.Fatalf("ParseTimedRead(%q) ok = %v, want %v", text, ok, valid)
		}
		if valid && (g != gate || o != out || b != bit) {
			t.Fatalf("round trip of %q = %q %d %d", text, g, o, b)
		}
		// Free text must never panic the parser, and whatever it
		// accepts must satisfy the same bounds.
		if _, o, b, ok := ParseTimedRead(gate); ok && (o < 0 || b < 0 || b > 1) {
			t.Fatalf("ParseTimedRead(%q) accepted out=%d bit=%d", gate, o, b)
		}
	})
}
