// Package obs is the sim-time observability layer: a metrics registry
// (counters, gauges, fixed-bucket histograms and probes keyed by
// "subsystem/name") plus an event tracer backed by a preallocated ring
// buffer that records typed spans and instants with sim.Time timestamps.
//
// The paper's 4+1 assurance architecture only works if each layer can
// account for what it saw and decided; obs is that evidence trail for the
// simulation: kernel dispatches, CAN transmissions, gateway verdicts, IDS
// alerts, OTA phases and keyless exchanges all land in one timeline,
// exportable as Chrome trace_event JSON (loadable in
// chrome://tracing or Perfetto) and as a plain-text timeline, while the
// registry snapshot renders through experiments.Table.
//
// Design constraints, in order:
//
//   - Disabled must be free. Instrumented packages hold a nil *Tracer (or
//     nil *Counter / *Histogram) and the emit methods are nil-receiver
//     no-ops, so the disabled hot path costs one predictable branch and
//     zero allocations — TestKernelSteadyStateAllocs still pins 0
//     allocs/event with obs off.
//   - Enabled must not allocate per event after warm-up. Events are
//     fixed-size values written into a preallocated power-of-two ring;
//     all strings are interned once into Labels (uint32 handles), so the
//     steady state touches no allocator (TestTracerSteadyStateAllocs).
//   - Deterministic. Emission order follows simulation order, label ids
//     follow interning order, and the exporters iterate the ring in
//     order, so the same seed produces byte-identical exports.
//
// The tracer and registry are NOT goroutine-safe: one instance belongs to
// one simulation (one kernel, or one kernel group, whose members dispatch
// on one goroutine), matching the replication model where every seed
// runs on its own kernel.
package obs

import (
	"autosec/internal/sim"
)

// Label is an interned string handle. Label 0 is the empty string and
// doubles as "no label".
type Label uint32

// Kind discriminates event shapes.
type Kind uint8

const (
	// Instant is a point event (Chrome ph "i").
	Instant Kind = iota
	// Span is a duration event (Chrome ph "X"): At is the start, Dur the
	// length.
	Span
)

// Event is one fixed-size trace record. Sub names the emitting subsystem
// ("kernel", "can", "gateway", ...), Name the event type or verdict, Str
// carries an optional interned string payload (sender, bus, reason), and
// Arg1/Arg2 carry numeric payload (frame id, bit count, pending events).
type Event struct {
	At   sim.Time
	Dur  sim.Duration
	Sub  Label
	Name Label
	Str  Label
	Arg1 int64
	Arg2 int64
	Kind Kind
}

// Tracer records events into a preallocated ring buffer. Once the ring is
// full the oldest events are overwritten (Dropped reports how many); the
// retained window is always the most recent events in order.
//
// The zero Tracer is not usable; construct with NewTracer. A nil *Tracer
// is valid everywhere and drops everything — that is the disabled state.
type Tracer struct {
	ring []Event
	mask uint64
	n    uint64 // total events emitted

	labels []string
	ids    map[string]Label

	// Pre-interned labels for the kernel dispatch hook, so the hottest
	// emit path performs no map lookups at all.
	lblKernel   Label
	lblDispatch Label
}

// DefaultCapacity is the ring size used when NewTracer is given n <= 0.
const DefaultCapacity = 1 << 14

// NewTracer creates a tracer whose ring retains the last n events
// (rounded up to a power of two; n <= 0 means DefaultCapacity).
func NewTracer(n int) *Tracer {
	if n <= 0 {
		n = DefaultCapacity
	}
	capacity := 1
	for capacity < n {
		capacity <<= 1
	}
	t := &Tracer{
		ring:   make([]Event, capacity),
		mask:   uint64(capacity - 1),
		labels: make([]string, 1, 64), // labels[0] = ""
		ids:    map[string]Label{"": 0},
	}
	t.lblKernel = t.Label("kernel")
	t.lblDispatch = t.Label("dispatch")
	return t
}

// Label interns s and returns its handle. Interning a new string
// allocates; re-interning is a map lookup. Hot paths should intern their
// labels once at instrumentation time and pass the handles to Instant and
// Span.
func (t *Tracer) Label(s string) Label {
	if t == nil {
		return 0
	}
	if id, ok := t.ids[s]; ok {
		return id
	}
	id := Label(len(t.labels))
	t.labels = append(t.labels, s)
	t.ids[s] = id
	return id
}

// LabelString resolves a handle back to its string.
func (t *Tracer) LabelString(l Label) string {
	if t == nil || int(l) >= len(t.labels) {
		return ""
	}
	return t.labels[l]
}

// Instant records a point event. No-op on a nil tracer.
func (t *Tracer) Instant(at sim.Time, sub, name, str Label, arg1, arg2 int64) {
	if t == nil {
		return
	}
	t.ring[t.n&t.mask] = Event{At: at, Kind: Instant, Sub: sub, Name: name, Str: str, Arg1: arg1, Arg2: arg2}
	t.n++
}

// Span records a duration event starting at start. No-op on a nil tracer.
func (t *Tracer) Span(start sim.Time, dur sim.Duration, sub, name, str Label, arg1, arg2 int64) {
	if t == nil {
		return
	}
	t.ring[t.n&t.mask] = Event{At: start, Dur: dur, Kind: Span, Sub: sub, Name: name, Str: str, Arg1: arg1, Arg2: arg2}
	t.n++
}

// KernelDispatch implements sim.TraceSink: one instant per dispatched
// kernel event, with the post-dispatch pending count as Arg1.
func (t *Tracer) KernelDispatch(at sim.Time, pending int) {
	if t == nil {
		return
	}
	t.ring[t.n&t.mask] = Event{At: at, Kind: Instant, Sub: t.lblKernel, Name: t.lblDispatch, Arg1: int64(pending)}
	t.n++
}

// Total reports how many events were ever emitted.
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	return t.n
}

// Len reports how many events the ring currently retains.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	if t.n < uint64(len(t.ring)) {
		return int(t.n)
	}
	return len(t.ring)
}

// Dropped reports how many events were overwritten by ring wrap-around.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	if t.n < uint64(len(t.ring)) {
		return 0
	}
	return t.n - uint64(len(t.ring))
}

// Events returns the retained events in emission order. It allocates a
// fresh slice; call it from export paths, not hot paths.
func (t *Tracer) Events() []Event {
	if t == nil || t.n == 0 {
		return nil
	}
	if t.n <= uint64(len(t.ring)) {
		out := make([]Event, t.n)
		copy(out, t.ring[:t.n])
		return out
	}
	head := t.n & t.mask
	out := make([]Event, 0, len(t.ring))
	out = append(out, t.ring[head:]...)
	return append(out, t.ring[:head]...)
}

// Reset discards all recorded events but keeps the interned labels, so a
// warmed-up tracer can be reused without re-warming the label table.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.n = 0
}

// ResetAll discards the recorded events AND the interned label table,
// restoring the tracer to its post-NewTracer state (only "", "kernel"
// and "dispatch" remain interned). Use it when recycling one tracer
// across independent captures whose exported bytes must not depend on
// each other: label ids leak into the Chrome trace output (they are the
// tid values), so a plain Reset would make a capture's bytes depend on
// every capture that warmed the table before it. The ring and the label
// backing arrays are retained, so steady-state recycling re-interns into
// existing capacity.
func (t *Tracer) ResetAll() {
	if t == nil {
		return
	}
	t.n = 0
	const retained = 3 // "", "kernel", "dispatch"
	if len(t.labels) <= retained {
		return
	}
	for _, s := range t.labels[retained:] {
		delete(t.ids, s)
	}
	for i := retained; i < len(t.labels); i++ {
		t.labels[i] = ""
	}
	t.labels = t.labels[:retained]
}
