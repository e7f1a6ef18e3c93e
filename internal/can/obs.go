package can

import (
	"autosec/internal/obs"
)

// Instrument attaches the bus to the observability layer. Either argument
// may be nil (tracing and metrics enable independently); a nil argument
// leaves that side's current binding in place. Labels are
// interned and instruments created here, once, so the per-frame emission
// in complete stays allocation-free; calling Instrument on a bus that is
// already carrying traffic is safe (events start flowing from the next
// completed frame).
//
// Trace events (subsystem "can"): one span per completed frame, named
// "tx" or "tx-error", covering the wire time, with Str = bus name,
// Arg1 = frame ID, Arg2 = bits on wire.
//
// Metrics (keyed "can/<bus>/..."): frames_ok, frames_errored and
// bits_on_wire probe the bus's existing counters (no double-counting on
// the data path), load probes Load(), and frame_time_us is a histogram of
// per-frame wire times in microseconds.
func (b *Bus) Instrument(tr *obs.Tracer, reg *obs.Registry) {
	if tr != nil {
		b.obsTr = tr
		b.obsSub = tr.Label("can")
		b.obsTx = tr.Label("tx")
		b.obsTxErr = tr.Label("tx-error")
		b.obsBus = tr.Label(b.Name)
	}
	if reg != nil {
		prefix := "can/" + b.Name + "/"
		reg.Probe(prefix+"frames_ok", func() float64 { return float64(b.FramesOK.Value) })
		reg.Probe(prefix+"frames_errored", func() float64 { return float64(b.FramesErrored.Value) })
		reg.Probe(prefix+"bits_on_wire", func() float64 { return float64(b.BitsOnWire) })
		reg.Probe(prefix+"load", b.Load)
		b.obsFrameUS = reg.Histogram(prefix+"frame_time_us", nil)
	}
}
