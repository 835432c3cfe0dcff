// Package health tracks the runtime health of a weird machine's timing
// gates. The paper's gates are probabilistic timing devices: a bit is
// decoded by comparing a timed read against the calibrated hit/miss
// threshold, so correctness is exactly the distance of each read from
// that threshold — the timing margin. Contention and microarchitectural
// drift (frequency scaling, thermal throttling) erode the margin long
// before gates start flipping bits, which makes the margin distribution
// the leading health indicator for a serving stack built on μWMs.
//
// The Monitor is a trace.Sink: it consumes the machine's existing
// microarchitectural event stream (KindTimedRead for margins,
// KindCalibration for threshold changes) plus, when driven live by the
// engine, per-gate correctness outcomes. Because verdicts derive purely
// from the trace stream, replaying a JSONL recording through the same
// Monitor (Replay) reproduces the live drift verdicts exactly — the
// live == offline property the vprof profiler established for cycles,
// extended here to health.
//
// Drift detection is a one-sided CUSUM on the absolute margin: the first
// baselineSamples reads after each calibration establish a baseline mean
// and deviation, then S accumulates standardized shrinkage below the
// baseline, alarming when S crosses cusumThreshold. A calibration event
// resets the detector, so the recover-by-recalibration loop (engine
// worker sees Drifting, calls Machine.Recalibrate, machine emits
// KindCalibration, Monitor resets) closes by construction.
package health

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"

	"uwm/internal/stats"
	"uwm/internal/trace"
)

// Detector settings. Live monitors and offline replays share these
// constants, so a replayed verdict cannot differ from the live one by
// configuration.
const (
	// windowSize bounds the rolling per-gate margin window backing
	// quantiles and histograms.
	windowSize = 256
	// baselineSamples is how many post-calibration reads establish the
	// CUSUM baseline before drift scoring starts.
	baselineSamples = 64
	// errorAlpha is the EWMA weight for per-gate error rates fed via
	// ObserveOutcome.
	errorAlpha = 0.05
	// marginAlpha is the EWMA weight for the absolute-margin trend.
	marginAlpha = 0.05
	// cusumSlack is the CUSUM slack k in baseline standard deviations:
	// shrinkage smaller than k·σ is ignored. 1.0 tunes the detector for
	// sustained shifts of about 2σ and up — a finite baseline
	// underestimates the margin spread, so a smaller slack false-alarms
	// on long healthy streams.
	cusumSlack = 1.0
	// cusumThreshold is the alarm level h for the CUSUM statistic.
	cusumThreshold = 12
	// cusumClamp winsorizes each read's standardized shrinkage at ±this
	// many baseline deviations before it enters the CUSUM. Without it a
	// single aberrant read — a hit inflated by interrupt jitter into the
	// gap near the threshold — scores tens of deviations and alarms on
	// its own; clamped, an alarm needs sustained erosion across at least
	// cusumThreshold/(cusumClamp−cusumSlack) reads.
	cusumClamp = 4
	// errorRateLimit marks the monitor unhealthy when the machine-level
	// error EWMA exceeds it.
	errorRateLimit = 0.25
	// outlierCutoff excludes reads with latency at or above this many
	// cycles from margin statistics: TSX aborted reads report a sentinel
	// latency (1<<19) and interrupt outliers add thousands of cycles;
	// both would poison the baseline deviation. Excluded reads are still
	// counted.
	outlierCutoff = 4096
)

// gateState is the per-gate rolling view.
type gateState struct {
	family   string
	reads    int64
	ones     int64
	outliers int64
	ops      int64
	correct  int64
	errEWMA  float64
	errInit  bool
	window   []int64 // signed margins, ring buffer
	wNext    int
	wFull    bool
}

func (g *gateState) pushMargin(m int64) {
	if len(g.window) < windowSize {
		g.window = append(g.window, m)
		return
	}
	g.window[g.wNext] = m
	g.wNext++
	if g.wNext == len(g.window) {
		g.wNext = 0
		g.wFull = true
	}
}

// margins returns the window's samples (order irrelevant to quantiles).
func (g *gateState) margins() []int64 { return g.window }

// Monitor maintains rolling gate-health state for one machine. It is a
// trace.Sink; attach it (via trace.Tee, typically) to the machine whose
// health it should track. All methods are safe for concurrent use: the
// emitting worker and snapshot readers (the HTTP health endpoint) may
// race.
type Monitor struct {
	mu sync.Mutex

	threshold            int64
	calibrations         int64
	lastCalibrationCycle int64
	reads                int64
	outliers             int64
	lastCycle            int64

	// Machine-level drift state.
	baseline    []float64 // |margin| samples collected post-calibration
	baseMean    float64
	baseStd     float64
	baseReady   bool
	cusum       float64
	drifting    bool
	marginEWMA  float64
	marginInit  bool
	machErrEWMA float64
	machErrInit bool

	gates map[string]*gateState
}

// NewMonitor builds a Monitor.
func NewMonitor() *Monitor {
	return &Monitor{gates: make(map[string]*gateState)}
}

// Emit implements trace.Sink. Only calibration and timed-read events are
// consumed; everything else passes through untouched (the monitor is
// normally one leg of a Tee).
func (m *Monitor) Emit(e trace.Event) {
	switch e.Kind {
	case trace.KindCalibration:
		m.mu.Lock()
		m.threshold = int64(e.Value)
		m.calibrations++
		m.lastCalibrationCycle = e.Cycle
		m.lastCycle = e.Cycle
		m.resetDriftLocked()
		m.mu.Unlock()
	case trace.KindTimedRead:
		gate, _, bit, ok := trace.ParseTimedRead(e.Text)
		if !ok {
			return
		}
		m.mu.Lock()
		m.observeReadLocked(gate, bit, int64(e.Value), e.Cycle)
		m.mu.Unlock()
	case trace.KindAnnotation:
		if strings.HasPrefix(e.Text, StateEventPrefix) {
			m.applyState(e.Text[len(StateEventPrefix):])
		}
	}
}

// StateEventPrefix marks an annotation event carrying a serialized
// drift-detector checkpoint (see StateEvent).
const StateEventPrefix = "health-state "

// driftState is the wire form of the machine-level drift-detector state
// a StateEvent checkpoint carries. Per-gate windows are deliberately
// absent: the drift verdict is machine-level, and the checkpoint exists
// to make that verdict — not the cosmetic per-gate histograms —
// replayable from a partial stream.
type driftState struct {
	Threshold            int64     `json:"threshold"`
	Calibrations         int64     `json:"calibrations"`
	LastCalibrationCycle int64     `json:"last_calibration_cycle"`
	LastCycle            int64     `json:"last_cycle"`
	Reads                int64     `json:"reads"`
	Outliers             int64     `json:"outliers"`
	Baseline             []float64 `json:"baseline,omitempty"`
	BaselineMean         float64   `json:"baseline_mean"`
	BaselineStd          float64   `json:"baseline_std"`
	BaselineReady        bool      `json:"baseline_ready"`
	CUSUM                float64   `json:"cusum"`
	Drifting             bool      `json:"drifting"`
	MarginEWMA           float64   `json:"margin_ewma"`
	MarginInit           bool      `json:"margin_init"`
}

// StateEvent checkpoints the monitor's machine-level drift state as an
// annotation event. Seeding a per-job trace capture with this event
// before the job's own events makes the capture self-contained:
// replaying it through a fresh Monitor first restores the detector's
// mid-stream state (threshold, baseline, CUSUM, latched verdict), so
// the replayed drift verdict matches the live one even though the
// capture holds only one job's reads. JSON round-trips float64 values
// exactly (shortest-representation encoding), which is what makes the
// live == replayed verdict comparison byte-for-byte.
func (m *Monitor) StateEvent() trace.Event {
	m.mu.Lock()
	st := driftState{
		Threshold:            m.threshold,
		Calibrations:         m.calibrations,
		LastCalibrationCycle: m.lastCalibrationCycle,
		LastCycle:            m.lastCycle,
		Reads:                m.reads,
		Outliers:             m.outliers,
		Baseline:             append([]float64(nil), m.baseline...),
		BaselineMean:         m.baseMean,
		BaselineStd:          m.baseStd,
		BaselineReady:        m.baseReady,
		CUSUM:                m.cusum,
		Drifting:             m.drifting,
		MarginEWMA:           m.marginEWMA,
		MarginInit:           m.marginInit,
	}
	cycle := m.lastCycle
	m.mu.Unlock()
	b, err := json.Marshal(st)
	if err != nil {
		// Unreachable for these field types; degrade to a no-op marker.
		b = []byte("{}")
	}
	return trace.Event{Kind: trace.KindAnnotation, Cycle: cycle, Text: StateEventPrefix + string(b)}
}

// applyState restores a StateEvent checkpoint. Malformed payloads are
// ignored — a checkpoint is an optimization for partial streams, never
// a correctness requirement for full ones.
func (m *Monitor) applyState(data string) {
	var st driftState
	if json.Unmarshal([]byte(data), &st) != nil {
		return
	}
	m.mu.Lock()
	m.threshold = st.Threshold
	m.calibrations = st.Calibrations
	m.lastCalibrationCycle = st.LastCalibrationCycle
	m.lastCycle = st.LastCycle
	m.reads = st.Reads
	m.outliers = st.Outliers
	m.baseline = append(m.baseline[:0], st.Baseline...)
	m.baseMean = st.BaselineMean
	m.baseStd = st.BaselineStd
	m.baseReady = st.BaselineReady
	m.cusum = st.CUSUM
	m.drifting = st.Drifting
	m.marginEWMA = st.MarginEWMA
	m.marginInit = st.MarginInit
	m.mu.Unlock()
}

// resetDriftLocked clears the CUSUM baseline and any latched verdict —
// the monitor's reaction to a (re)calibration.
func (m *Monitor) resetDriftLocked() {
	m.baseline = m.baseline[:0]
	m.baseMean, m.baseStd = 0, 0
	m.baseReady = false
	m.cusum = 0
	m.drifting = false
}

func (m *Monitor) observeReadLocked(gate string, bit int, delta, cycle int64) {
	g := m.gates[gate]
	if g == nil {
		g = &gateState{family: familyOf(gate)}
		m.gates[gate] = g
	}
	m.reads++
	g.reads++
	if bit == 1 {
		g.ones++
	}
	if cycle > m.lastCycle {
		m.lastCycle = cycle
	}
	if m.threshold == 0 || delta >= outlierCutoff {
		m.outliers++
		g.outliers++
		return
	}
	margin := delta - m.threshold
	g.pushMargin(margin)

	am := abs64f(margin)
	if !m.marginInit {
		m.marginEWMA, m.marginInit = am, true
	} else {
		m.marginEWMA += marginAlpha * (am - m.marginEWMA)
	}

	// Baseline collection, then CUSUM scoring for margin shrinkage.
	if !m.baseReady {
		m.baseline = append(m.baseline, am)
		if len(m.baseline) >= baselineSamples {
			s := stats.Summarize(m.baseline)
			m.baseMean, m.baseStd = s.Mean, s.StdDev
			if m.baseStd < 1 {
				m.baseStd = 1
			}
			m.baseReady = true
		}
		return
	}
	z := (m.baseMean - am) / m.baseStd
	if z > cusumClamp {
		z = cusumClamp
	} else if z < -cusumClamp {
		z = -cusumClamp
	}
	m.cusum += z - cusumSlack
	if m.cusum < 0 {
		m.cusum = 0
	}
	if m.cusum >= cusumThreshold {
		m.drifting = true
	}
}

// ObserveOutcome folds a scored gate operation batch into the error-rate
// EWMAs. The engine's gate jobs call this with the per-job correct/total
// counts; offline replays have no truth table, so error fields are the
// one place live and offline snapshots may differ.
func (m *Monitor) ObserveOutcome(gate string, correct, total int) {
	if total <= 0 {
		return
	}
	errRate := 1 - float64(correct)/float64(total)
	m.mu.Lock()
	defer m.mu.Unlock()
	g := m.gates[gate]
	if g == nil {
		g = &gateState{family: familyOf(gate)}
		m.gates[gate] = g
	}
	g.ops += int64(total)
	g.correct += int64(correct)
	if !g.errInit {
		g.errEWMA, g.errInit = errRate, true
	} else {
		g.errEWMA += errorAlpha * (errRate - g.errEWMA)
	}
	if !m.machErrInit {
		m.machErrEWMA, m.machErrInit = errRate, true
	} else {
		m.machErrEWMA += errorAlpha * (errRate - m.machErrEWMA)
	}
}

// Drifting reports whether the margin distribution has drifted past the
// CUSUM alarm since the last calibration. The verdict latches until a
// calibration event resets it.
func (m *Monitor) Drifting() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.drifting
}

// Healthy reports the overall verdict: not drifting and error EWMA under
// errorRateLimit.
func (m *Monitor) Healthy() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return !m.drifting && (!m.machErrInit || m.machErrEWMA <= errorRateLimit)
}

// MarginQuantiles is the fixed quantile set reported per gate.
type MarginQuantiles struct {
	P5  float64 `json:"p5"`
	P25 float64 `json:"p25"`
	P50 float64 `json:"p50"`
	P75 float64 `json:"p75"`
	P95 float64 `json:"p95"`
}

// GateHealth is the per-gate slice of a Snapshot.
type GateHealth struct {
	Gate      string          `json:"gate"`
	Family    string          `json:"family"`
	Reads     int64           `json:"reads"`
	Ones      int64           `json:"ones"`
	Outliers  int64           `json:"outliers"`
	Ops       int64           `json:"ops,omitempty"`
	Correct   int64           `json:"correct,omitempty"`
	ErrorEWMA float64         `json:"error_ewma"`
	Margins   MarginQuantiles `json:"margins"`
	// MarginBins is the current window bucketed for sparkline rendering.
	MarginBins []stats.Bin `json:"margin_bins,omitempty"`
}

// Snapshot is a point-in-time copy of the monitor's state. All fields
// derive from simulated cycles and counts — no wall-clock time — so two
// snapshots built from the same event stream compare equal.
type Snapshot struct {
	Threshold            int64        `json:"threshold"`
	Calibrations         int64        `json:"calibrations"`
	LastCalibrationCycle int64        `json:"last_calibration_cycle"`
	LastCycle            int64        `json:"last_cycle"`
	Reads                int64        `json:"reads"`
	Outliers             int64        `json:"outliers"`
	Drifting             bool         `json:"drifting"`
	Healthy              bool         `json:"healthy"`
	CUSUM                float64      `json:"cusum"`
	BaselineReady        bool         `json:"baseline_ready"`
	BaselineMean         float64      `json:"baseline_mean"`
	BaselineStd          float64      `json:"baseline_std"`
	MarginEWMA           float64      `json:"margin_ewma"`
	ErrorEWMA            float64      `json:"error_ewma"`
	Gates                []GateHealth `json:"gates"`
}

// Verdict is the drift-relevant slice of a Snapshot: exactly the fields
// that must agree between a live monitor and an offline replay of the
// same event stream. Error EWMAs are excluded on purpose — outcomes are
// not in the trace — so comparing serialized Verdicts is the precise
// statement of the live == offline guarantee.
type Verdict struct {
	Threshold     int64   `json:"threshold"`
	Calibrations  int64   `json:"calibrations"`
	Drifting      bool    `json:"drifting"`
	CUSUM         float64 `json:"cusum"`
	BaselineReady bool    `json:"baseline_ready"`
	BaselineMean  float64 `json:"baseline_mean"`
	BaselineStd   float64 `json:"baseline_std"`
	MarginEWMA    float64 `json:"margin_ewma"`
}

// Verdict extracts the drift verdict from a snapshot.
func (s Snapshot) Verdict() Verdict {
	return Verdict{
		Threshold:     s.Threshold,
		Calibrations:  s.Calibrations,
		Drifting:      s.Drifting,
		CUSUM:         s.CUSUM,
		BaselineReady: s.BaselineReady,
		BaselineMean:  s.BaselineMean,
		BaselineStd:   s.BaselineStd,
		MarginEWMA:    s.MarginEWMA,
	}
}

// Verdict copies the monitor's current drift verdict without building
// the full per-gate snapshot — cheap enough to record on every job
// completion.
func (m *Monitor) Verdict() Verdict {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Verdict{
		Threshold:     m.threshold,
		Calibrations:  m.calibrations,
		Drifting:      m.drifting,
		CUSUM:         m.cusum,
		BaselineReady: m.baseReady,
		BaselineMean:  m.baseMean,
		BaselineStd:   m.baseStd,
		MarginEWMA:    m.marginEWMA,
	}
}

// binWidth buckets margins in 16-cycle steps — fine enough to show a
// drift of tens of cycles, coarse enough for a terminal sparkline.
const binWidth = 16

// Snapshot copies the monitor's current state. Gates are sorted by name
// for deterministic output.
func (m *Monitor) Snapshot() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Snapshot{
		Threshold:            m.threshold,
		Calibrations:         m.calibrations,
		LastCalibrationCycle: m.lastCalibrationCycle,
		LastCycle:            m.lastCycle,
		Reads:                m.reads,
		Outliers:             m.outliers,
		Drifting:             m.drifting,
		Healthy:              !m.drifting && (!m.machErrInit || m.machErrEWMA <= errorRateLimit),
		CUSUM:                m.cusum,
		BaselineReady:        m.baseReady,
		BaselineMean:         m.baseMean,
		BaselineStd:          m.baseStd,
		MarginEWMA:           m.marginEWMA,
		ErrorEWMA:            m.machErrEWMA,
	}
	names := make([]string, 0, len(m.gates))
	for name := range m.gates {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		g := m.gates[name]
		gh := GateHealth{
			Gate:      name,
			Family:    g.family,
			Reads:     g.reads,
			Ones:      g.ones,
			Outliers:  g.outliers,
			Ops:       g.ops,
			Correct:   g.correct,
			ErrorEWMA: g.errEWMA,
		}
		if ms := g.margins(); len(ms) > 0 {
			fs := make([]float64, len(ms))
			for i, v := range ms {
				fs[i] = float64(v)
			}
			sort.Float64s(fs)
			gh.Margins = MarginQuantiles{
				P5:  stats.Quantile(fs, 0.05),
				P25: stats.Quantile(fs, 0.25),
				P50: stats.Quantile(fs, 0.50),
				P75: stats.Quantile(fs, 0.75),
				P95: stats.Quantile(fs, 0.95),
			}
			gh.MarginBins = stats.HistogramInts(ms, binWidth)
		}
		s.Gates = append(s.Gates, gh)
	}
	return s
}

// Replay feeds a recorded event stream through a fresh Monitor and
// returns it. Running the same events a live monitor consumed yields an
// identical margin/drift state — the offline half of the live == offline
// verdict guarantee (error EWMAs excepted: outcomes aren't in the
// trace).
func Replay(events []trace.Event) *Monitor {
	m := NewMonitor()
	for _, e := range events {
		m.Emit(e)
	}
	return m
}

// RenderSnapshot formats a snapshot as a fixed-width terminal table with
// per-gate margin histograms, shared by uwm-top and uwm-trace -health.
func RenderSnapshot(s Snapshot, width int) string {
	if width <= 0 {
		width = 40
	}
	var sb strings.Builder
	state := "healthy"
	if s.Drifting {
		state = "DRIFTING"
	} else if !s.Healthy {
		state = "degraded"
	}
	fmt.Fprintf(&sb, "state=%s threshold=%d calibrations=%d reads=%d outliers=%d\n",
		state, s.Threshold, s.Calibrations, s.Reads, s.Outliers)
	fmt.Fprintf(&sb, "cusum=%.2f (baseline mean=%.1f std=%.1f ready=%v) |margin| ewma=%.1f err ewma=%.3f\n",
		s.CUSUM, s.BaselineMean, s.BaselineStd, s.BaselineReady, s.MarginEWMA, s.ErrorEWMA)
	for _, g := range s.Gates {
		fmt.Fprintf(&sb, "\n%s (%s): reads=%d ones=%d outliers=%d err=%.3f  margin p5/p50/p95 = %.0f/%.0f/%.0f\n",
			g.Gate, g.Family, g.Reads, g.Ones, g.Outliers, g.ErrorEWMA,
			g.Margins.P5, g.Margins.P50, g.Margins.P95)
		if len(g.MarginBins) > 0 {
			sb.WriteString(stats.RenderHistogram(g.MarginBins, width))
		}
	}
	return sb.String()
}

// familyOf maps a gate name to its hardware family: TSX post-fault gates
// are prefixed TSX_; everything else is the branch-predictor family.
func familyOf(gate string) string {
	if strings.HasPrefix(gate, "TSX_") {
		return "tsx"
	}
	return "bp"
}

func abs64f(x int64) float64 {
	if x < 0 {
		return float64(-x)
	}
	return float64(x)
}
