package metrics

import (
	"io"
	"sync"
	"testing"
)

// TestConcurrentScrapeWhileEmitting pins the live-scrape contract the
// obs debug endpoint relies on: one goroutine scrapes WriteText (and
// Value) while others register series and bump counters, gauges and
// histograms. The test's assertion is the race detector — `go test
// -race` fails on any unsynchronized access — plus the final counts.
func TestConcurrentScrapeWhileEmitting(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("uwm_race_total", "shared counter")
	g := r.Gauge("uwm_race_level", "shared gauge")
	h := r.Histogram("uwm_race_hist", "shared histogram", []float64{1, 10, 100})

	const (
		writers = 4
		perG    = 2000
	)
	var writersWG, scraperWG sync.WaitGroup
	stop := make(chan struct{})

	// Scraper: hammer the read paths until the writers finish.
	scraperWG.Add(1)
	go func() {
		defer scraperWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := r.WriteText(io.Discard); err != nil {
				t.Errorf("WriteText: %v", err)
				return
			}
			r.Value("uwm_race_total")
			r.Histogram("uwm_race_hist", "shared histogram", []float64{1, 10, 100}).Count()
		}
	}()

	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			mine := r.Counter("uwm_race_worker_total", "per-worker series",
				L("worker", string(rune('a'+w))))
			for i := 0; i < perG; i++ {
				c.Inc()
				mine.Inc()
				g.Set(float64(i))
				h.Observe(float64(i % 150))
				// Late registration while a scrape may be mid-flight.
				if i == perG/2 {
					n := uint64(i)
					r.CounterFunc("uwm_race_func_"+string(rune('a'+w)),
						"registered mid-run", func() uint64 { return n })
				}
			}
		}(w)
	}

	// Wait for the writers, then release the scraper.
	writersWG.Wait()
	close(stop)
	scraperWG.Wait()

	if got := c.Value(); got != writers*perG {
		t.Errorf("shared counter = %d, want %d", got, writers*perG)
	}
	for w := 0; w < writers; w++ {
		v, ok := r.Value("uwm_race_worker_total", L("worker", string(rune('a'+w))))
		if !ok || v != perG {
			t.Errorf("worker %d series = %v,%v, want %d", w, v, ok, perG)
		}
	}
}
