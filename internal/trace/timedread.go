package trace

import (
	"strconv"
	"strings"
	"unicode"
)

// FormatTimedRead renders the text payload of a KindTimedRead event,
// "gate=NAME out=N bit=B": the gate, the output index it read and the
// bit the latency decoded to. Offline analysis and the gate-health
// monitor recover the three fields with ParseTimedRead.
func FormatTimedRead(gate string, out, bit int) string {
	return "gate=" + gate + " out=" + strconv.Itoa(out) + " bit=" + strconv.Itoa(bit)
}

// ParseTimedRead decodes a FormatTimedRead payload. It rejects any
// other text, an empty gate name or one containing white space, a
// negative output index and a bit other than 0 or 1.
func ParseTimedRead(text string) (gate string, out, bit int, ok bool) {
	rest, found := strings.CutPrefix(text, "gate=")
	if !found {
		return "", 0, 0, false
	}
	gate, rest, found = strings.Cut(rest, " out=")
	if !found || gate == "" || strings.ContainsFunc(gate, unicode.IsSpace) {
		return "", 0, 0, false
	}
	outText, bitText, found := strings.Cut(rest, " bit=")
	if !found {
		return "", 0, 0, false
	}
	out, err := strconv.Atoi(outText)
	if err != nil || out < 0 {
		return "", 0, 0, false
	}
	if bitText != "0" && bitText != "1" {
		return "", 0, 0, false
	}
	return gate, out, int(bitText[0] - '0'), true
}
