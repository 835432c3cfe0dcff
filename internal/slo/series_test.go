package slo

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// refSeries is the bucket-sum series the running-total ring must match:
// one good/bad tally per bucket, a window summed bucket by bucket
// newest first, and the ring advanced one zeroed bucket at a time.
type refSeries struct {
	width   int64
	pairs   []pair
	head    int
	headBI  int64
	started bool
}

func newRefSeries(shortest, horizon time.Duration) *refSeries {
	width := int64(shortest) / 12
	if width < int64(time.Second) {
		width = int64(time.Second)
	}
	n := int64(horizon)/width + 2
	if n < 2 {
		n = 2
	}
	return &refSeries{width: width, pairs: make([]pair, n)}
}

func (s *refSeries) add(at time.Time, good, bad float64) {
	bi := at.UnixNano() / s.width
	if !s.started {
		s.started = true
		s.headBI = bi
		s.head = 0
	}
	for bi > s.headBI {
		s.head++
		if s.head == len(s.pairs) {
			s.head = 0
		}
		s.pairs[s.head] = pair{}
		s.headBI++
	}
	back := s.headBI - bi
	if back < 0 || back >= int64(len(s.pairs)) {
		return
	}
	idx := s.head - int(back)
	if idx < 0 {
		idx += len(s.pairs)
	}
	s.pairs[idx].good += good
	s.pairs[idx].bad += bad
}

func (s *refSeries) window(now time.Time, w time.Duration) (good, bad float64) {
	if !s.started {
		return 0, 0
	}
	nowBI := now.UnixNano() / s.width
	nb := int64(w) / s.width
	if nb < 1 {
		nb = 1
	}
	for d := int64(0); d < nb; d++ {
		back := s.headBI - (nowBI - d)
		if back < 0 || back >= int64(len(s.pairs)) {
			continue
		}
		idx := s.head - int(back)
		if idx < 0 {
			idx += len(s.pairs)
		}
		good += s.pairs[idx].good
		bad += s.pairs[idx].bad
	}
	return good, bad
}

// TestSeriesMatchesReference drives the running-total series and
// refSeries with the same seeded adds — in order, late within the
// ring, far in the past, and after gaps up to ten years — and requires
// bit-identical windows after every add, read at arbitrary times (as
// Status reads them) over windows shorter than a bucket, within the
// ring, and longer than it.
func TestSeriesMatchesReference(t *testing.T) {
	shortests := []time.Duration{time.Second, 12 * time.Second, time.Minute, 5 * time.Minute, 7*time.Minute + 3*time.Second, time.Hour}
	horizons := []time.Duration{0, time.Second, 90 * time.Second, time.Hour, 6 * time.Hour, 24 * time.Hour, 72 * time.Hour}
	const tenYears = 10 * 365 * 24 * time.Hour
	rng := rand.New(rand.NewSource(20211017))
	decades := 0
	for round := 0; round < 24; round++ {
		shortest := shortests[rng.Intn(len(shortests))]
		horizon := horizons[rng.Intn(len(horizons))]
		s, ref := newSeries(shortest, horizon), newRefSeries(shortest, horizon)
		if len(ref.pairs) > 5000 { // keep the reference's bucket walks short
			round--
			continue
		}
		width := time.Duration(ref.width)
		span := time.Duration(len(ref.pairs)) * width
		now := epoch().Add(time.Duration(rng.Int63n(int64(time.Hour))))
		for step := 0; step < 400; step++ {
			at := now
			switch r := rng.Intn(100); {
			case r < 55: // in order, within a few buckets
				now = now.Add(time.Duration(rng.Int63n(int64(3 * width))))
				at = now
			case r < 75: // late, inside the ring
				at = now.Add(-time.Duration(rng.Int63n(int64(span))))
			case r < 85: // far past: at or beyond the ring's edge
				at = now.Add(-span + width - time.Duration(rng.Int63n(int64(3*span))))
			case r < 99: // a gap of up to two ring lengths
				now = now.Add(time.Duration(rng.Int63n(int64(2 * span))))
				at = now
			default: // a long idle gap; the reference walks it bucket by bucket
				gap := tenYears
				if ref.width < int64(5*time.Minute) {
					gap = time.Duration(rng.Int63n(int64(24 * time.Hour)))
				} else {
					decades++
				}
				now = now.Add(gap)
				at = now
			}
			good, bad := float64(rng.Intn(4)), float64(rng.Intn(3))
			if rng.Intn(20) == 0 { // a gate job's tally
				good, bad = float64(rng.Intn(1<<20)), float64(rng.Intn(1<<10))
			}
			s.add(at, good, bad)
			ref.add(at, good, bad)
			for q := 0; q < 6; q++ {
				ws := []time.Duration{
					time.Duration(rng.Int63n(int64(width))),
					shortest,
					time.Duration(rng.Int63n(int64(span) + 1)),
					span,
					span + time.Duration(rng.Int63n(int64(span))),
					horizon,
				}
				w := ws[q]
				readAt := now.Add(time.Duration(rng.Int63n(int64(2*span))) - span)
				if q == 0 {
					readAt = now
				}
				g1, b1 := s.window(readAt, w)
				g2, b2 := ref.window(readAt, w)
				if math.Float64bits(g1) != math.Float64bits(g2) || math.Float64bits(b1) != math.Float64bits(b2) {
					t.Fatalf("round %d step %d (width %v, %d buckets): window(%v, %v) = %v/%v, reference %v/%v",
						round, step, width, len(ref.pairs), readAt.Sub(now), w, g1, b1, g2, b2)
				}
			}
		}
	}
	if decades == 0 {
		t.Fatal("no ten-year gap was drawn")
	}
}

// BenchmarkSLOObserve files one healthy observation into an engine
// holding the default SLOs, a millisecond of virtual time apart.
func BenchmarkSLOObserve(b *testing.B) {
	e, err := New(Config{})
	if err != nil {
		b.Fatal(err)
	}
	at := epoch()
	obs := Observation{Type: "gate", Status: "done", LatencySeconds: 0.001, GateCorrect: 15, GateTotal: 16}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at = at.Add(time.Millisecond)
		obs.At = at
		e.Observe(obs)
	}
}
