package slo

import "time"

// pair is a good/bad tally.
type pair struct{ good, bad float64 }

// series is a bucketed ring of good/bad counts over virtual time. The
// bucket width is derived from the finest alert window so windowed
// sums quantize acceptably, and the ring spans the longest horizon the
// SLO evaluates over (budget window or slowest policy's long window).
//
// Buckets are addressed by absolute index (timestamp / width), so the
// series has no notion of "now" beyond the newest bucket it has seen —
// time advances only when observations arrive, which is what keeps
// evaluation deterministic under a virtual clock.
//
// The ring holds running totals, not per-bucket counts: the slot for
// bucket b holds T(b), the sum of every retained count in buckets up to
// b. It keeps one slot more than the n buckets it retains; the oldest
// slot is the baseline T(oldest−1) that the retained buckets are
// counted from. Any window is then one subtraction, and an observation
// costs the same whatever the window lengths. The totals are exact:
// every count comes from classify as an integer-valued float, and
// integer-valued floats add and subtract without rounding, in any
// order, while the totals stay below 2^53. So each window reads
// bit-for-bit what summing its buckets one by one would read.
type series struct {
	width   int64  // bucket width, ns
	tot     []pair // running totals; slot head is T(headBI)
	head    int    // ring slot of the newest bucket
	headBI  int64  // absolute bucket index of the newest bucket
	started bool
}

// newSeries sizes a ring: width fine enough to resolve the shortest
// window into ~12 buckets (floored at 1s), retaining enough buckets to
// cover horizon.
func newSeries(shortest, horizon time.Duration) *series {
	width := int64(shortest) / 12
	if width < int64(time.Second) {
		width = int64(time.Second)
	}
	n := int64(horizon)/width + 2
	if n < 2 {
		n = 2
	}
	return &series{width: width, tot: make([]pair, n+1)}
}

// slot returns the ring slot of bucket bi, which must lie within
// [headBI−len(tot)+1, headBI].
func (s *series) slot(bi int64) int {
	idx := s.head - int(s.headBI-bi)
	if idx < 0 {
		idx += len(s.tot)
	}
	return idx
}

// add accumulates counts into the bucket containing at, advancing the
// ring as needed. Observations older than the retained buckets are
// dropped — they are outside every window the engine evaluates. An
// advance writes each slot at most once, however long the gap, and a
// late observation updates the totals from its bucket up to the head.
func (s *series) add(at time.Time, good, bad float64) {
	bi := at.UnixNano() / s.width
	if !s.started {
		s.started = true
		s.headBI = bi
		s.head = 0
	}
	if gap := bi - s.headBI; gap > 0 {
		if gap >= int64(len(s.tot)) {
			// Every bucket the ring held is now older than its baseline,
			// so any common value is a valid set of totals.
			clear(s.tot)
		} else {
			carry := s.tot[s.head]
			for ; gap > 0; gap-- {
				s.head++
				if s.head == len(s.tot) {
					s.head = 0
				}
				s.tot[s.head] = carry
			}
		}
		s.headBI = bi
	}
	if s.headBI-bi >= int64(len(s.tot)-1) {
		return
	}
	for idx := s.slot(bi); ; {
		s.tot[idx].good += good
		s.tot[idx].bad += bad
		if idx == s.head {
			return
		}
		idx++
		if idx == len(s.tot) {
			idx = 0
		}
	}
}

// window sums the retained buckets covering (now-w, now]. Buckets newer
// than the head read as empty: T(min(now, head)) − T(max(now−w,
// oldest−1)).
func (s *series) window(now time.Time, w time.Duration) (good, bad float64) {
	if !s.started {
		return 0, 0
	}
	nowBI := now.UnixNano() / s.width
	nb := int64(w) / s.width
	if nb < 1 {
		nb = 1
	}
	hi := min(nowBI, s.headBI)
	lo := max(nowBI-nb, s.headBI-int64(len(s.tot)-1))
	if hi <= lo {
		return 0, 0
	}
	a, b := s.tot[s.slot(hi)], s.tot[s.slot(lo)]
	return a.good - b.good, a.bad - b.bad
}
