package main

import (
	"bufio"
	"bytes"
	"math"
	"math/rand/v2"
	"os"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"uwm/internal/metrics"
)

// reservoirSize bounds the latency samples one phase keeps. A gates
// run completes millions of activations; keeping them all would make
// the benchmark's own memory grow with the program's speed and show up
// in peak_rss_mb.
const reservoirSize = 1 << 16

// latencies is a fixed-size uniform sample (Vitter's algorithm R) of
// operation latencies in milliseconds. Safe for concurrent use.
type latencies struct {
	mu   sync.Mutex
	rng  *rand.Rand
	seen int64
	ms   []float64
}

func newLatencies(seed uint64) *latencies {
	return &latencies{rng: rand.New(rand.NewPCG(seed, 0x6c6174)), ms: make([]float64, 0, 1024)}
}

func (l *latencies) add(d time.Duration) {
	v := float64(d) / float64(time.Millisecond)
	l.mu.Lock()
	l.seen++
	if len(l.ms) < reservoirSize {
		l.ms = append(l.ms, v)
	} else if k := l.rng.Int64N(l.seen); k < reservoirSize {
		l.ms[k] = v
	}
	l.mu.Unlock()
}

// count is the number of latencies observed (not only those kept).
func (l *latencies) count() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seen
}

// quantile returns the q-quantile of the sample, 0 when it is empty.
func (l *latencies) quantile(q float64) float64 {
	l.mu.Lock()
	xs := append([]float64(nil), l.ms...)
	l.mu.Unlock()
	return quantile(xs, q)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the same rule as numpy's default); 0 for no data.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// runtimeSample is a point-in-time read of the Go runtime counters the
// runtime.* layer metrics difference.
type runtimeSample struct {
	allocBytes, allocObjects uint64
	gcCPU, totalCPU          float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	samples := make([]rtmetrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		samples[i].Name = n
	}
	rtmetrics.Read(samples)
	u := func(i int) uint64 {
		if samples[i].Value.Kind() == rtmetrics.KindUint64 {
			return samples[i].Value.Uint64()
		}
		return 0
	}
	f := func(i int) float64 {
		if samples[i].Value.Kind() == rtmetrics.KindFloat64 {
			return samples[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocBytes: u(0), allocObjects: u(1), gcCPU: f(2), totalCPU: f(3)}
}

// runtimeLayer turns two runtime samples around a window of ops
// operations into the runtime.* layer metrics.
func runtimeLayer(before, after runtimeSample, ops int64, out map[string]float64) {
	n := float64(max(ops, 1))
	out["runtime.alloc_bytes_per_op"] = float64(after.allocBytes-before.allocBytes) / n
	out["runtime.allocs_per_op"] = float64(after.allocObjects-before.allocObjects) / n
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		out["runtime.gc_cpu_fraction"] = (after.gcCPU - before.gcCPU) / cpu
	}
}

// series sums every sample of the named series in a registry whose
// labels include all of match ("key=value" pairs), read through the
// registry's Prometheus text exposition so labelled families need no
// label enumeration.
func series(regs []*metrics.Registry, name string, match ...string) float64 {
	total := 0.0
	for _, reg := range regs {
		var buf bytes.Buffer
		if reg.WriteText(&buf) != nil {
			continue
		}
		sc := bufio.NewScanner(&buf)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, name) {
				continue
			}
			rest := line[len(name):]
			labels := ""
			switch {
			case strings.HasPrefix(rest, "{"):
				end := strings.Index(rest, "} ")
				if end < 0 {
					continue
				}
				labels, rest = rest[1:end], rest[end+1:]
			case strings.HasPrefix(rest, " "):
			default:
				continue // a longer name sharing the prefix
			}
			ok := true
			for _, m := range match {
				k, v, _ := strings.Cut(m, "=")
				if !strings.Contains(","+labels+",", ","+k+"="+strconv.Quote(v)+",") {
					ok = false
				}
			}
			if !ok {
				continue
			}
			if f := strings.Fields(rest); len(f) > 0 {
				if v, err := strconv.ParseFloat(f[0], 64); err == nil {
					total += v
				}
			}
		}
	}
	return total
}

// readCounters reads the named series of the registries, summed over
// their labels.
func readCounters(regs []*metrics.Registry, names []string) map[string]float64 {
	out := make(map[string]float64, len(names))
	for _, n := range names {
		out[n] = series(regs, n)
	}
	return out
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
