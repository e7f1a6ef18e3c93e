package ids

import (
	"fmt"
	"sort"
	"strings"

	"autosec/internal/netif"
	"autosec/internal/obs"
	"autosec/internal/sim"
)

// Engine runs a set of detectors over live traffic and aggregates alerts.
// Detectors can be added and removed at runtime — the in-field upgrade
// path the extensibility experiments exercise. Routing is medium-keyed:
// detectors live in a Registry, and each record reaches the global
// (medium-agnostic) detectors plus the ones registered for the record's
// netif.Kind, in a deterministic merge order (see Registry).
type Engine struct {
	reg    Registry
	Alerts []Alert

	onAlert []func(Alert)

	observed int64 // records fed to Observe

	// Observability (nil when off). Detector-name labels intern on first
	// alert; lastAlert feeds the alert-gap histogram.
	obsTr     *obs.Tracer
	obsSub    obs.Label // "ids"
	obsGapUS  *obs.Histogram
	lastAlert sim.Time
	hasAlert  bool

	// Reattach cache (survives ResetToBaseline); see ReattachMetrics.
	obsCacheReg  *obs.Registry
	obsCacheHist *obs.Histogram

	// Pooled-reuse baseline; see MarkBaseline/ResetToBaseline.
	baseSealed  bool
	baseOnAlert int
}

// MarkBaseline seals the engine's construction-time alert wiring so
// ResetToBaseline can drop scenario subscribers (auto-quarantine hooks
// and the like) while keeping the ones registered during construction.
func (e *Engine) MarkBaseline() {
	e.baseSealed = true
	e.baseOnAlert = len(e.onAlert)
}

// ResetToBaseline rewinds the engine for pooled reuse: the detector set
// is replaced with the fresh detectors the caller supplies (detectors
// are stateful, so the constructor re-creates the construction-time
// set), alerts and counters clear, scenario alert subscribers drop, and
// observability detaches. Taps registered via Attach live on the media
// and survive by construction.
func (e *Engine) ResetToBaseline(ds ...Detector) {
	if !e.baseSealed {
		panic("ids: ResetToBaseline before MarkBaseline")
	}
	e.reg.Clear()
	for _, d := range ds {
		e.reg.Register(d)
	}
	e.Alerts = e.Alerts[:0]
	for i := e.baseOnAlert; i < len(e.onAlert); i++ {
		e.onAlert[i] = nil
	}
	e.onAlert = e.onAlert[:e.baseOnAlert]
	e.observed = 0
	e.obsTr = nil
	e.obsSub = 0
	e.obsGapUS = nil
	e.lastAlert = 0
	e.hasAlert = false
}

// NewEngine creates an engine with the given initial detectors.
// MediumDetectors route to their medium's registry bucket, everything
// else to the global set (see Registry.Register).
func NewEngine(ds ...Detector) *Engine {
	e := &Engine{}
	for _, d := range ds {
		e.reg.Register(d)
	}
	return e
}

// NewEngineFromSuite builds an engine from a detector suite.
func NewEngineFromSuite(s Suite) *Engine { return NewEngine(s.Build()...) }

// Add installs a detector at runtime, routing MediumDetectors to their
// medium's bucket — the in-field upgrade path: a policy push of a
// FlexRay model lands in the FlexRay bucket without the pusher knowing
// the registry layout.
func (e *Engine) Add(d Detector) { e.reg.Register(d) }

// Remove uninstalls a detector by name; it reports whether one was found.
func (e *Engine) Remove(name string) bool { return e.reg.Remove(name) }

// Detectors lists the installed detector names in routing order.
func (e *Engine) Detectors() []string { return e.reg.Names() }

// Train trains every installed detector on the clean reference trace.
func (e *Engine) Train(trace *netif.Trace) { e.reg.Train(trace) }

// OnAlert registers an alert subscriber (e.g. the gateway's quarantine
// trigger).
func (e *Engine) OnAlert(fn func(Alert)) { e.onAlert = append(e.onAlert, fn) }

// Observe routes one record through the registry: the global detectors
// first, then the record's medium bucket, each in install order — the
// deterministic alert merge order the golden tables pin. Alerts append
// straight to e.Alerts, and the returned slice is that tail of the alert
// history: it aliases e.Alerts, so it is valid until ResetToBaseline
// reuses the history's storage. The hot path allocates nothing when no
// detector alerts.
func (e *Engine) Observe(rec netif.Record) []Alert {
	e.observed++
	start := len(e.Alerts)
	for _, d := range e.reg.global {
		e.Alerts = append(e.Alerts, d.Observe(rec)...)
	}
	if int(rec.Frame.Medium) < len(e.reg.byKind) {
		for _, d := range e.reg.byKind[rec.Frame.Medium] {
			e.Alerts = append(e.Alerts, d.Observe(rec)...)
		}
	}
	out := e.Alerts[start:len(e.Alerts):len(e.Alerts)]
	for _, a := range out {
		if e.obsTr != nil {
			e.obsTr.Instant(a.At, e.obsSub, e.obsTr.Label(a.Detector), e.obsTr.Label(a.Reason), int64(a.ID), 0)
		}
		if e.obsGapUS != nil {
			if e.hasAlert {
				e.obsGapUS.Observe(float64(a.At-e.lastAlert) / 1e3)
			}
			e.hasAlert = true
			e.lastAlert = a.At
		}
		for _, fn := range e.onAlert {
			fn(a)
		}
	}
	return out
}

// Observed reports how many records the engine has been fed.
func (e *Engine) Observed() int64 { return e.observed }

// Instrument attaches the engine to the observability layer (either
// argument may be nil).
//
// Trace events (subsystem "ids"): one instant per alert, named with the
// detector, with Str = the alert reason and Arg1 = the offending frame
// ID.
//
// Metrics: ids/alerts_total and ids/observed probe the engine's state;
// ids/alert_gap_us is a histogram of the time between consecutive alerts
// in microseconds (a burst-vs-trickle signature).
func (e *Engine) Instrument(tr *obs.Tracer, reg *obs.Registry) {
	if tr != nil {
		e.obsTr = tr
		e.obsSub = tr.Label("ids")
	}
	if reg != nil {
		reg.Probe("ids/alerts_total", func() float64 { return float64(len(e.Alerts)) })
		reg.Probe("ids/observed", func() float64 { return float64(e.observed) })
		e.obsGapUS = reg.Histogram("ids/alert_gap_us", nil)
		e.obsCacheReg, e.obsCacheHist = reg, e.obsGapUS
	}
}

// ReattachMetrics re-arms the alert-gap histogram after a
// ResetToBaseline detached it, provided reg is the registry this engine
// last Instrument-ed into (whose probe entries must still be present —
// a rewound registry keeps them). Returns false when the full
// Instrument path is required.
func (e *Engine) ReattachMetrics(reg *obs.Registry) bool {
	if reg == nil || e.obsCacheReg != reg {
		return false
	}
	e.obsGapUS = e.obsCacheHist
	return true
}

// Attach taps the engine into live traffic on a medium. Records are
// cloned off the tap's frame view, so detectors may retain payloads.
func (e *Engine) Attach(m netif.Medium) {
	m.Tap(func(at sim.Time, f *netif.Frame, corrupted bool) {
		e.Observe(netif.Record{At: at, Frame: f.Clone(), Corrupted: corrupted})
	})
}

// Metrics is a detection confusion summary for one evaluation run.
type Metrics struct {
	TruePositives  int // attack windows with ≥1 alert
	FalseNegatives int // attack windows without alerts
	FalsePositives int // alerts outside any attack window
	CleanWindows   int // evaluated clean windows
}

// DetectionRate is TP / (TP + FN).
func (m Metrics) DetectionRate() float64 {
	d := m.TruePositives + m.FalseNegatives
	if d == 0 {
		return 0
	}
	return float64(m.TruePositives) / float64(d)
}

// FalsePositiveRate is FP alerts per clean window.
func (m Metrics) FalsePositiveRate() float64 {
	if m.CleanWindows == 0 {
		return 0
	}
	return float64(m.FalsePositives) / float64(m.CleanWindows)
}

func (m Metrics) String() string {
	return fmt.Sprintf("TPR=%.3f (TP=%d FN=%d) FP/window=%.4f (FP=%d over %d windows)",
		m.DetectionRate(), m.TruePositives, m.FalseNegatives,
		m.FalsePositiveRate(), m.FalsePositives, m.CleanWindows)
}

// Window is a labelled time span for evaluation.
type Window struct {
	Lo, Hi sim.Time
	Attack bool
}

// Evaluate replays a trace through freshly trained detectors and scores
// alerts against labelled windows. Alerts raised within (or up to grace
// after) an attack window count as true positives for that window.
func Evaluate(detectors []Detector, train, live *netif.Trace, windows []Window, grace sim.Duration) Metrics {
	eng := NewEngine(detectors...)
	eng.Train(train)
	for i := range live.Records {
		eng.Observe(live.Records[i])
	}
	sort.Slice(eng.Alerts, func(i, j int) bool { return eng.Alerts[i].At < eng.Alerts[j].At })

	var m Metrics
	matched := make([]bool, len(eng.Alerts))
	for _, w := range windows {
		if !w.Attack {
			m.CleanWindows++
			continue
		}
		hit := false
		for i, a := range eng.Alerts {
			if a.At >= w.Lo && a.At <= w.Hi+grace {
				matched[i] = true
				hit = true
			}
		}
		if hit {
			m.TruePositives++
		} else {
			m.FalseNegatives++
		}
	}
	for i, a := range eng.Alerts {
		if !matched[i] {
			_ = a
			m.FalsePositives++
		}
	}
	return m
}

// Summary renders the engine's alerts grouped by detector.
func (e *Engine) Summary() string {
	byDet := make(map[string]int)
	for _, a := range e.Alerts {
		byDet[a.Detector]++
	}
	names := make([]string, 0, len(byDet))
	for n := range byDet {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "%d alerts", len(e.Alerts))
	for _, n := range names {
		fmt.Fprintf(&b, " %s=%d", n, byDet[n])
	}
	return b.String()
}
