package traceanalyze

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"uwm/internal/analyzer"
	"uwm/internal/stats"
	"uwm/internal/trace"
)

// abortedReadSentinel matches the sentinel latency an aborted read
// transaction reports (see evalharness.readAborted): such samples carry
// no timing information.
const abortedReadSentinel = 1 << 19

// Options tunes the analysis.
type Options struct {
	// MaxOverlapSamples caps the listed contention incidents (the
	// counts are always exact). Default 8.
	MaxOverlapSamples int
}

// KindCount is one event-kind tally.
type KindCount struct {
	Kind  string `json:"kind"`
	Plane string `json:"plane"`
	Count int    `json:"count"`
}

// GateStats reconstructs one gate's timeline from its timed reads.
type GateStats struct {
	Gate         string           `json:"gate"`
	Reads        int              `json:"reads"`
	AbortedReads int              `json:"aborted_reads"`
	Bits         [2]int           `json:"bits"` // decoded 0s and 1s
	FirstCycle   int64            `json:"first_cycle"`
	LastCycle    int64            `json:"last_cycle"`
	LatencyByBit [2]stats.Summary `json:"latency_by_bit"`
}

// SpecStats is the speculative-window analysis: overall length
// distribution plus the paper's core correlation — window length
// versus the outcome of the gate read the window feeds.
type SpecStats struct {
	Windows      int              `json:"windows"`
	Lengths      stats.Summary    `json:"lengths"`
	ByOutcome    [2]stats.Summary `json:"lengths_by_outcome"`
	Unattributed int              `json:"unattributed"`
}

// TxStats summarises transactional regions.
type TxStats struct {
	Begins        int           `json:"begins"`
	Commits       int           `json:"commits"`
	Aborts        int           `json:"aborts"`
	AbortFraction float64       `json:"abort_fraction"`
	Durations     stats.Summary `json:"durations"`
}

// Overlap is one contention incident inside an open speculative window.
type Overlap struct {
	Kind   string `json:"kind"` // "noise-in-window" or "evict-in-window"
	Cycle  int64  `json:"cycle"`
	Detail string `json:"detail,omitempty"`
}

// OverlapStats counts contention incidents.
type OverlapStats struct {
	NoiseInWindow int       `json:"noise_in_window"`
	EvictInWindow int       `json:"evict_in_window"`
	Samples       []Overlap `json:"samples,omitempty"`
}

// Detectability is the HPC-style summary replayed from the trace: the
// verdict analyzer.DefaultHPCThresholds gives the trace's event counts.
// A trace carries no mispredict counts, so that rule never fires here.
type Detectability struct {
	Committed     int      `json:"committed"`
	SpecWindows   int      `json:"spec_windows"`
	TxAborts      int      `json:"tx_aborts"`
	TxCommits     int      `json:"tx_commits"`
	CacheFlushes  int      `json:"cache_flushes"`
	AbortFraction float64  `json:"abort_fraction"`
	SpecPerInst   float64  `json:"spec_per_inst"`
	FlushPerInst  float64  `json:"flush_per_inst"`
	Suspicious    bool     `json:"suspicious"`
	Reasons       []string `json:"reasons,omitempty"`
}

// Report is the full offline analysis of one trace.
type Report struct {
	Events     int           `json:"events"`
	Arch       int           `json:"arch_events"`
	Micro      int           `json:"micro_events"`
	FirstCycle int64         `json:"first_cycle"`
	LastCycle  int64         `json:"last_cycle"`
	Truncated  bool          `json:"truncated"`
	ByKind     []KindCount   `json:"by_kind"`
	Gates      []GateStats   `json:"gates,omitempty"`
	Spec       SpecStats     `json:"spec_windows"`
	Tx         TxStats       `json:"tsx"`
	Overlaps   OverlapStats  `json:"contention"`
	Detect     Detectability `json:"detectability"`
}

// Analyze computes the offline report over a decoded event stream.
func Analyze(events []trace.Event, opts Options) *Report {
	if opts.MaxOverlapSamples == 0 {
		opts.MaxOverlapSamples = 8
	}
	r := &Report{Events: len(events)}
	if len(events) > 0 {
		r.FirstCycle = events[0].Cycle
		r.LastCycle = events[len(events)-1].Cycle
	}

	byKind := map[trace.Kind]int{}
	gates := map[string]*GateStats{}
	gateLat := map[string]*[2][]float64{}
	var specLens []float64
	var specByBit [2][]float64
	var pendingSpec []float64 // windows not yet attributed to a read
	var txDurations []float64
	txBegin, txOpen := int64(0), false

	// Open speculative window for contention checks: the simulator is
	// single-threaded, so at most one window is open at a time and
	// every following event inside [start, start+len) raced with it.
	specEnd := int64(-1)

	for _, e := range events {
		byKind[e.Kind]++
		if e.Kind.Architectural() {
			r.Arch++
		} else {
			r.Micro++
		}
		switch e.Kind {
		case trace.KindSpecStart:
			l := float64(e.Value)
			specLens = append(specLens, l)
			pendingSpec = append(pendingSpec, l)
			specEnd = e.Cycle + int64(e.Value)
		case trace.KindNoise:
			if e.Cycle <= specEnd {
				r.Overlaps.NoiseInWindow++
				if len(r.Overlaps.Samples) < opts.MaxOverlapSamples {
					r.Overlaps.Samples = append(r.Overlaps.Samples,
						Overlap{Kind: "noise-in-window", Cycle: e.Cycle, Detail: e.Text})
				}
			}
		case trace.KindCacheEvict:
			if e.Cycle <= specEnd {
				r.Overlaps.EvictInWindow++
				if len(r.Overlaps.Samples) < opts.MaxOverlapSamples {
					r.Overlaps.Samples = append(r.Overlaps.Samples,
						Overlap{Kind: "evict-in-window", Cycle: e.Cycle,
							Detail: fmt.Sprintf("addr=%#x %s", e.Addr, e.Text)})
				}
			}
		case trace.KindTxBegin:
			txBegin, txOpen = e.Cycle, true
		case trace.KindTxEnd, trace.KindTxAbort:
			if txOpen {
				txDurations = append(txDurations, float64(e.Cycle-txBegin))
				txOpen = false
			}
		case trace.KindTimedRead:
			gate, _, bit, ok := trace.ParseTimedRead(e.Text)
			if !ok {
				break
			}
			g := gates[gate]
			if g == nil {
				g = &GateStats{Gate: gate, FirstCycle: e.Cycle}
				gates[gate] = g
				gateLat[gate] = &[2][]float64{}
			}
			g.Reads++
			g.LastCycle = e.Cycle
			if e.Value >= abortedReadSentinel {
				g.AbortedReads++
			} else {
				g.Bits[bit]++
				gateLat[gate][bit] = append(gateLat[gate][bit], float64(e.Value))
				// The windows opened since the previous read fed this
				// outcome: the paper's race, replayed offline.
				specByBit[bit] = append(specByBit[bit], pendingSpec...)
				pendingSpec = pendingSpec[:0]
			}
		}
	}

	// Assemble ordered kind counts.
	for _, k := range trace.AllKinds() {
		if n := byKind[k]; n > 0 {
			plane := "uarch"
			if k.Architectural() {
				plane = "arch"
			}
			r.ByKind = append(r.ByKind, KindCount{Kind: k.String(), Plane: plane, Count: n})
		}
	}

	// Gate reports, sorted by name for determinism.
	names := make([]string, 0, len(gates))
	for n := range gates {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		g := gates[n]
		g.LatencyByBit[0] = stats.Summarize(gateLat[n][0])
		g.LatencyByBit[1] = stats.Summarize(gateLat[n][1])
		r.Gates = append(r.Gates, *g)
	}

	r.Spec = SpecStats{
		Windows:      len(specLens),
		Lengths:      stats.Summarize(specLens),
		ByOutcome:    [2]stats.Summary{stats.Summarize(specByBit[0]), stats.Summarize(specByBit[1])},
		Unattributed: len(pendingSpec),
	}

	r.Tx = TxStats{
		Begins:    byKind[trace.KindTxBegin],
		Commits:   byKind[trace.KindTxEnd],
		Aborts:    byKind[trace.KindTxAbort],
		Durations: stats.Summarize(txDurations),
	}
	if t := r.Tx.Commits + r.Tx.Aborts; t > 0 {
		r.Tx.AbortFraction = float64(r.Tx.Aborts) / float64(t)
	}

	s := analyzer.HPCSample{
		Committed:    uint64(byKind[trace.KindCommit]),
		SpecWindows:  uint64(byKind[trace.KindSpecStart]),
		TxAborts:     uint64(r.Tx.Aborts),
		TxCommits:    uint64(r.Tx.Commits),
		CacheFlushes: uint64(byKind[trace.KindCacheFlush]),
	}
	v := analyzer.DefaultHPCThresholds().Judge(s)
	r.Detect = Detectability{
		Committed:     int(s.Committed),
		SpecWindows:   int(s.SpecWindows),
		TxAborts:      int(s.TxAborts),
		TxCommits:     int(s.TxCommits),
		CacheFlushes:  int(s.CacheFlushes),
		AbortFraction: s.AbortFraction(),
		SpecPerInst:   s.SpecRate(),
		FlushPerInst:  s.FlushRate(),
		Suspicious:    v.Suspicious,
		Reasons:       v.Reasons,
	}
	return r
}

// WriteJSON serialises the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// RenderTable lays the report out as aligned text for terminals.
func (r *Report) RenderTable() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== trace analysis ==\n")
	fmt.Fprintf(&sb, "events: %d (%d architectural, %d microarchitectural), cycles %d–%d",
		r.Events, r.Arch, r.Micro, r.FirstCycle, r.LastCycle)
	if r.Truncated {
		sb.WriteString(", TRUNCATED tail dropped")
	}
	sb.WriteString("\n\n-- events by kind --\n")
	for _, kc := range r.ByKind {
		fmt.Fprintf(&sb, "  %-12s %-5s %d\n", kc.Kind, kc.Plane, kc.Count)
	}

	if len(r.Gates) > 0 {
		sb.WriteString("\n-- per-gate timelines (from timed reads) --\n")
		fmt.Fprintf(&sb, "  %-12s %7s %7s %7s %7s  %-22s %-22s\n",
			"gate", "reads", "bit=0", "bit=1", "aborted", "lat med/max (bit=0)", "lat med/max (bit=1)")
		for _, g := range r.Gates {
			fmt.Fprintf(&sb, "  %-12s %7d %7d %7d %7d  %-22s %-22s\n",
				g.Gate, g.Reads, g.Bits[0], g.Bits[1], g.AbortedReads,
				fmt.Sprintf("%.0f / %.0f", g.LatencyByBit[0].Median, g.LatencyByBit[0].Max),
				fmt.Sprintf("%.0f / %.0f", g.LatencyByBit[1].Median, g.LatencyByBit[1].Max))
		}
	}

	sb.WriteString("\n-- speculative windows --\n")
	fmt.Fprintf(&sb, "  windows: %d   length min/med/max: %.0f / %.0f / %.0f cycles\n",
		r.Spec.Windows, r.Spec.Lengths.Min, r.Spec.Lengths.Median, r.Spec.Lengths.Max)
	for bit := 0; bit < 2; bit++ {
		s := r.Spec.ByOutcome[bit]
		if s.N > 0 {
			fmt.Fprintf(&sb, "  feeding bit=%d reads: n=%d med=%.0f q1=%.0f q3=%.0f\n",
				bit, s.N, s.Median, s.Q1, s.Q3)
		}
	}
	if r.Spec.Unattributed > 0 {
		fmt.Fprintf(&sb, "  unattributed windows (no following gate read): %d\n", r.Spec.Unattributed)
	}

	sb.WriteString("\n-- transactional regions --\n")
	fmt.Fprintf(&sb, "  begins %d, commits %d, aborts %d (abort fraction %.3f); duration med %.0f cycles\n",
		r.Tx.Begins, r.Tx.Commits, r.Tx.Aborts, r.Tx.AbortFraction, r.Tx.Durations.Median)

	sb.WriteString("\n-- contention inside open windows --\n")
	fmt.Fprintf(&sb, "  noise-in-window %d, evict-in-window %d\n",
		r.Overlaps.NoiseInWindow, r.Overlaps.EvictInWindow)
	for _, o := range r.Overlaps.Samples {
		fmt.Fprintf(&sb, "    [%d] %s %s\n", o.Cycle, o.Kind, o.Detail)
	}

	d := r.Detect
	sb.WriteString("\n-- detectability (HPC replay, §7) --\n")
	fmt.Fprintf(&sb, "  committed %d, spec windows %d (%.4f/inst), clflush %d (%.4f/inst), abort fraction %.3f\n",
		d.Committed, d.SpecWindows, d.SpecPerInst, d.CacheFlushes, d.FlushPerInst, d.AbortFraction)
	if d.Suspicious {
		fmt.Fprintf(&sb, "  verdict: SUSPICIOUS — %s\n", strings.Join(d.Reasons, "; "))
	} else if len(d.Reasons) > 0 {
		fmt.Fprintf(&sb, "  verdict: no verdict — %s\n", strings.Join(d.Reasons, "; "))
	} else {
		sb.WriteString("  verdict: benign\n")
	}
	return sb.String()
}
