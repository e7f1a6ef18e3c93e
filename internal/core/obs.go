package core

import (
	"autosec/internal/obs"
)

// Instrument wires the whole vehicle into the observability layer in one
// call: kernel dispatch tracing, per-domain bus spans and metrics,
// gateway verdicts, IDS alerts, audit-log health, OTA outcomes (when a
// client is attached) and the PKES unit. Either argument may be nil —
// tracing and metrics enable independently, and a nil argument leaves
// that side's current binding in place — and a vehicle that is never
// instrumented pays only nil checks on its hot paths. Metric bindings
// survive Reset (tracers do not), so a pooled vehicle bound once keeps
// feeding the same registry until it is Instrument-ed into another.
//
// On a per-zone-kernel build tr attaches to every member kernel and to
// every subsystem, whichever zone it runs in. The group dispatches its
// members one after another on the calling goroutine, so the one ring
// records them without a race: events land in dispatch order, window by
// window and member by member within a window, each with its own
// timestamp. Metrics are read between runs only.
//
// Buses instrument in fixed domain order so label interning (and
// therefore trace bytes) is deterministic.
func (v *Vehicle) Instrument(tr *obs.Tracer, reg *obs.Registry) {
	if tr != nil {
		if v.Group != nil {
			for i := 0; i < v.Group.Members(); i++ {
				v.Group.Kernel(i).SetTraceSink(tr)
			}
		} else {
			v.Kernel.SetTraceSink(tr)
		}
	}
	if reg != nil {
		if v.Group != nil {
			reg.Probe("kernel/steps", func() float64 { return float64(v.Group.Steps()) })
			reg.Probe("kernel/pending", func() float64 { return float64(v.Group.Pending()) })
		} else {
			reg.Probe("kernel/steps", func() float64 { return float64(v.Kernel.Steps()) })
			reg.Probe("kernel/pending", func() float64 { return float64(v.Kernel.Pending()) })
		}
	}
	for _, name := range []string{DomainPowertrain, DomainChassis, DomainInfotainment} {
		v.Buses[name].Instrument(tr, reg)
	}
	if v.Zonal != nil {
		v.Zonal.Instrument(tr, reg)
	} else {
		v.Gateway.Instrument(tr, reg)
	}
	v.IDS.Instrument(tr, reg)
	v.Audit.Instrument(reg)
	if v.OTA != nil {
		v.OTA.Instrument(tr, reg)
	}
	v.Keyless.Instrument(tr, reg, v.Kernel.Now)
	if reg != nil {
		reg.Probe("core/auth_failures", func() float64 { return float64(v.AuthFailures.Value) })
	}
}
