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
// medium-agnostic detectors (the statistical families) sit in the global
// set and see every record; MediumDetectors sit in dense per-kind
// buckets and see only their own medium's records.
//
// Alert merge order is deterministic by construction: for each record,
// global detectors run first in install order, then the record's medium
// bucket in install order. Install order is the Add call order, so two
// runs that install the same detectors the same way produce
// byte-identical alert streams.
type Engine struct {
	global []Detector
	byKind [netif.NumKinds][]Detector
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

	// Pooled-reuse baseline; see MarkBaseline/ResetToBaseline. base is a
	// private copy of the construction-time detectors in routing order,
	// so Remove's in-place shift never reaches it.
	baseSealed  bool
	base        []Detector
	baseOnAlert int
}

// MarkBaseline seals the engine's construction-time state: the installed
// detectors, which ResetToBaseline reinstalls, and the alert wiring, so
// ResetToBaseline can drop scenario subscribers (auto-quarantine hooks
// and the like) while keeping the ones registered during construction.
func (e *Engine) MarkBaseline() {
	e.baseSealed = true
	e.base = e.base[:0]
	e.base = append(e.base, e.global...)
	for k := range e.byKind {
		e.base = append(e.base, e.byKind[k]...)
	}
	e.baseOnAlert = len(e.onAlert)
}

// ResetToBaseline rewinds the engine for pooled reuse, in place: every
// baseline detector returns to its untrained constructor state
// (Detector.Reset) and is reinstalled in the same routing order, any
// detector added at runtime or by a policy push is dropped, alerts and
// counters clear, scenario alert subscribers drop, and the tracer
// detaches. The result observes exactly like an engine freshly built
// from the same constructors. The alert-gap histogram stays bound to
// the registry the engine was last Instrument-ed into, and the gap
// restarts at the next alert. Taps registered via Attach live on the
// media and survive by construction.
func (e *Engine) ResetToBaseline() {
	if !e.baseSealed {
		panic("ids: ResetToBaseline before MarkBaseline")
	}
	// Nil the slots so runtime detectors are collectable, and keep the
	// backing arrays for the baseline set.
	clear(e.global)
	e.global = e.global[:0]
	for k := range e.byKind {
		clear(e.byKind[k])
		e.byKind[k] = e.byKind[k][:0]
	}
	for _, d := range e.base {
		d.Reset()
		e.Add(d)
	}
	e.Alerts = e.Alerts[:0]
	for i := e.baseOnAlert; i < len(e.onAlert); i++ {
		e.onAlert[i] = nil
	}
	e.onAlert = e.onAlert[:e.baseOnAlert]
	e.observed = 0
	e.obsTr = nil
	e.obsSub = 0
	e.lastAlert = 0
	e.hasAlert = false
}

// NewEngine creates an engine with the given initial detectors.
// MediumDetectors route to their medium's bucket, everything else to the
// global set (see Add).
func NewEngine(ds ...Detector) *Engine {
	e := &Engine{global: make([]Detector, 0, len(ds))}
	for _, d := range ds {
		e.Add(d)
	}
	return e
}

// NewEngineFromSuite builds an engine from a detector suite: one detector
// per constructor, installed in suite order.
func NewEngineFromSuite(s Suite) *Engine {
	e := &Engine{global: make([]Detector, 0, len(s))}
	for _, f := range s {
		e.Add(f())
	}
	return e
}

// Add installs a detector at runtime, routing MediumDetectors to their
// medium's bucket and everything else to the global set — the in-field
// upgrade path: a policy push of a FlexRay model lands in the FlexRay
// bucket without the pusher knowing the routing layout.
func (e *Engine) Add(d Detector) {
	if md, ok := d.(MediumDetector); ok {
		k := md.Medium()
		if int(k) < len(e.byKind) {
			e.byKind[k] = append(e.byKind[k], d)
			return
		}
	}
	e.global = append(e.global, d)
}

// Remove uninstalls the first detector with the given name, searching
// the global set first, then the media buckets in Kind order. It reports
// whether one was found.
func (e *Engine) Remove(name string) bool {
	if removeNamed(&e.global, name) {
		return true
	}
	for k := range e.byKind {
		if removeNamed(&e.byKind[k], name) {
			return true
		}
	}
	return false
}

func removeNamed(ds *[]Detector, name string) bool {
	for i, d := range *ds {
		if d.Name() == name {
			*ds = append((*ds)[:i], (*ds)[i+1:]...)
			return true
		}
	}
	return false
}

// Detectors lists the installed detector names in routing order: the
// global set, then each medium bucket in Kind order.
func (e *Engine) Detectors() []string {
	var out []string
	for _, d := range e.global {
		out = append(out, d.Name())
	}
	for k := range e.byKind {
		for _, d := range e.byKind[k] {
			out = append(out, d.Name())
		}
	}
	return out
}

// Train trains every installed detector on the clean reference trace,
// in routing order.
func (e *Engine) Train(trace *netif.Trace) {
	for _, d := range e.global {
		d.Train(trace)
	}
	for k := range e.byKind {
		for _, d := range e.byKind[k] {
			d.Train(trace)
		}
	}
}

// OnAlert registers an alert subscriber (e.g. the gateway's quarantine
// trigger).
func (e *Engine) OnAlert(fn func(Alert)) { e.onAlert = append(e.onAlert, fn) }

// Observe routes one record: the global detectors first, then the
// record's medium bucket, each in install order — the
// deterministic alert merge order the golden tables pin. Detectors
// append straight to e.Alerts, and the returned slice is that tail of
// the alert history: it aliases e.Alerts, so it is valid until
// ResetToBaseline reuses the history's storage. The hot path allocates
// nothing when no detector alerts, and once the history has grown, an
// alert allocates nothing here either.
func (e *Engine) Observe(rec netif.Record) []Alert {
	e.observed++
	start := len(e.Alerts)
	for _, d := range e.global {
		e.Alerts = d.Observe(e.Alerts, rec)
	}
	if int(rec.Frame.Medium) < len(e.byKind) {
		for _, d := range e.byKind[rec.Frame.Medium] {
			e.Alerts = d.Observe(e.Alerts, rec)
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

// Instrument attaches the engine to the observability layer. Either
// argument may be nil; a nil argument leaves that side's current binding
// in place.
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
	}
}

// Attach taps the engine into live traffic on a medium. The detectors
// see the medium's own frame view, not a copy: a record is valid only
// for the duration of Observe, and a detector that keeps payload bytes
// copies them (see Detector).
func (e *Engine) Attach(m netif.Medium) {
	m.Tap(func(at sim.Time, f *netif.Frame, corrupted bool) {
		e.Observe(netif.Record{At: at, Frame: *f, Corrupted: corrupted})
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
