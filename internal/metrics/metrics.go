// Package metrics is the simulator's dependency-free metrics layer: a
// registry of named, labelled counters, gauges and fixed-bucket
// histograms, plus lazily-collected variants that read an existing
// stats struct at scrape time.
//
// Two properties shape the design:
//
//   - the disabled path must be free: every instrument is nil-safe, so
//     an uninstrumented Machine hands nil *Counter / *Histogram handles
//     to the hot gate-fire loop and pays a nil check per event, no
//     allocation (BenchmarkMetricsDisabled guards this);
//   - values must be scrapeable concurrently: a -pprof HTTP goroutine
//     renders the registry while the simulation runs, so live
//     instruments use atomics and collector functions are only invoked
//     under the registry lock.
//
// The text exposition (WriteText) follows the Prometheus conventions so
// the output can be scraped or diffed directly.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one key=value dimension of a metric series.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing counter. The nil Counter is a
// valid, disabled instrument: all methods no-op.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 for a nil Counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable value. The nil Gauge no-ops.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the current value (0 for a nil Gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// kind discriminates registry entries.
type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
	kindCounterFunc
	kindGaugeFunc
)

func (k kind) String() string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// entry is one registered series.
type entry struct {
	name   string
	help   string
	labels []Label
	kind   kind

	counter   *Counter
	gauge     *Gauge
	hist      *Histogram
	counterFn func() uint64
	gaugeFn   func() float64
}

// scalar returns the entry's current value for scalar kinds.
func (e *entry) scalar() float64 {
	switch e.kind {
	case kindCounter:
		return float64(e.counter.Value())
	case kindGauge:
		return e.gauge.Value()
	case kindCounterFunc:
		return float64(e.counterFn())
	case kindGaugeFunc:
		return e.gaugeFn()
	default:
		return 0
	}
}

// Registry holds metric series in registration order. The nil Registry
// is a valid, disabled registry: instrument constructors return nil
// instruments and registration no-ops, so callers can thread a nil
// registry through an uninstrumented run for free.
type Registry struct {
	mu      sync.Mutex
	entries []*entry
	index   map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]*entry)}
}

// seriesKey uniquely identifies name+labels.
func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var sb strings.Builder
	sb.WriteString(name)
	for _, l := range labels {
		sb.WriteByte(0xff)
		sb.WriteString(l.Key)
		sb.WriteByte(0xfe)
		sb.WriteString(l.Value)
	}
	return sb.String()
}

// lookupOrAdd returns the existing entry for the series or inserts the
// given one. Registration is idempotent: re-registering a series
// returns the first registration (so two gates of the same type share
// one counter, and re-attaching a collector is harmless).
func (r *Registry) lookupOrAdd(e *entry) *entry {
	key := seriesKey(e.name, e.labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.index[key]; ok {
		if prev.kind.String() != e.kind.String() {
			panic(fmt.Sprintf("metrics: series %q re-registered as %s, was %s",
				e.name, e.kind, prev.kind))
		}
		return prev
	}
	r.index[key] = e
	r.entries = append(r.entries, e)
	return e
}

// Counter returns the counter for the series, creating it on first
// use. A nil Registry returns a nil (disabled) Counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	e := r.lookupOrAdd(&entry{name: name, help: help, labels: labels,
		kind: kindCounter, counter: new(Counter)})
	return e.counter
}

// Gauge returns the gauge for the series, creating it on first use.
// A nil Registry returns a nil (disabled) Gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	e := r.lookupOrAdd(&entry{name: name, help: help, labels: labels,
		kind: kindGauge, gauge: new(Gauge)})
	return e.gauge
}

// Histogram returns the histogram for the series, creating it with the
// given ascending bucket upper bounds on first use. A nil Registry
// returns a nil (disabled) Histogram.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	e := r.lookupOrAdd(&entry{name: name, help: help, labels: labels,
		kind: kindHistogram, hist: newHistogram(bounds)})
	return e.hist
}

// CounterFunc registers a lazily-collected counter whose value is read
// from fn at scrape time — the zero-hot-path-cost way to expose an
// existing stats struct field. fn must be cheap and safe to call from
// the scraping goroutine.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...Label) {
	if r == nil {
		return
	}
	r.lookupOrAdd(&entry{name: name, help: help, labels: labels,
		kind: kindCounterFunc, counterFn: fn})
}

// GaugeFunc registers a lazily-collected gauge.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.lookupOrAdd(&entry{name: name, help: help, labels: labels,
		kind: kindGaugeFunc, gaugeFn: fn})
}

// Value returns the current value of the scalar series (counter, gauge
// or collector) with the given name and labels. It reports false for
// unknown series and histograms.
func (r *Registry) Value(name string, labels ...Label) (float64, bool) {
	if r == nil {
		return 0, false
	}
	r.mu.Lock()
	e, ok := r.index[seriesKey(name, labels)]
	r.mu.Unlock()
	if !ok || e.kind == kindHistogram {
		return 0, false
	}
	return e.scalar(), true
}

// formatLabels renders {k="v",...} or "".
func formatLabels(labels []Label, extra ...Label) string {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, l := range all {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", l.Key, l.Value)
	}
	sb.WriteByte('}')
	return sb.String()
}

// formatValue renders a sample value the way Prometheus does: integers
// without a decimal point, everything else in shortest-float form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WriteText renders the registry in the Prometheus text exposition
// format, grouped by metric name with # HELP and # TYPE headers,
// names sorted for stable output.
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	entries := append([]*entry(nil), r.entries...)
	r.mu.Unlock()

	sort.SliceStable(entries, func(i, j int) bool { return entries[i].name < entries[j].name })

	lastName := ""
	for _, e := range entries {
		if e.name != lastName {
			if e.help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", e.name, e.help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", e.name, e.kind); err != nil {
				return err
			}
			lastName = e.name
		}
		if e.kind == kindHistogram {
			if err := e.hist.writeText(w, e.name, e.labels); err != nil {
				return err
			}
			continue
		}
		if _, err := fmt.Fprintf(w, "%s%s %s\n", e.name, formatLabels(e.labels), formatValue(e.scalar())); err != nil {
			return err
		}
	}
	return nil
}
