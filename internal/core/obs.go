package core

import (
	"autosec/internal/obs"
)

// Instrument wires the whole vehicle into the observability layer in one
// call: kernel dispatch tracing, per-domain bus spans and metrics,
// gateway verdicts, IDS alerts, audit-log health, OTA outcomes (when a
// client is attached) and the PKES unit. Either argument may be nil —
// tracing and metrics enable independently — and a vehicle that is never
// instrumented pays only nil checks on its hot paths.
//
// Buses instrument in fixed domain order so label interning (and
// therefore trace bytes) is deterministic.
func (v *Vehicle) Instrument(tr *obs.Tracer, reg *obs.Registry) {
	if v.Group != nil && tr != nil {
		// One trace ring would interleave per-zone kernels in window
		// order, not time order; these builds take per-member tracers.
		panic("core: shared tracer on a per-zone-kernel build; use InstrumentParallel")
	}
	if tr == nil && v.reattachMetrics(reg) {
		return
	}
	v.instrument([]*obs.Tracer{tr}, reg)
}

// reattachMetrics is the metrics-only re-instrument fast path for pooled
// vehicles: when this vehicle was already Instrument-ed into reg and has
// since been Reset, the registry still holds every probe closure (probes
// bind to subsystem objects, which the pool reuses — see
// obs.Registry.Rewind) and the only state to restore is the hot-path
// instrument pointers Reset detached. The full path costs ~60 heap
// allocations per vehicle in key interning and closure re-registration;
// this path costs three pointer writes per cached subsystem. Any cache
// miss (different registry, never instrumented) falls back to the full
// path, so correctness never depends on the cache being warm.
func (v *Vehicle) reattachMetrics(reg *obs.Registry) bool {
	if reg == nil || v.OTA != nil {
		// An attached OTA client is scenario state the cache has never
		// seen; take the full path so its instruments register.
		return false
	}
	for _, name := range []string{DomainPowertrain, DomainChassis, DomainInfotainment} {
		if !v.Buses[name].ReattachMetrics(reg) {
			return false
		}
	}
	if !v.IDS.ReattachMetrics(reg) {
		return false
	}
	return v.Audit.ReattachMetrics(reg)
}

// InstrumentParallel is Instrument for per-zone-kernel builds: member i's
// kernel — and every subsystem homed in zone i (its buses and gateway) —
// attaches to tracers[i], so each trace ring is appended by exactly one
// kernel. Subsystems homed in zone 0 (IDS, keyless, OTA) use tracers[0].
// tracers may be nil or shorter than the member count; missing entries
// mean metrics-only for that member. Metrics register against the shared
// registry exactly like Instrument; read them between runs only.
func (v *Vehicle) InstrumentParallel(tracers []*obs.Tracer, reg *obs.Registry) {
	if v.Group == nil {
		panic("core: InstrumentParallel on a single-kernel build; use Instrument")
	}
	v.instrument(tracers, reg)
}

// instrument is the one body behind Instrument and InstrumentParallel.
// Each subsystem attaches to the tracer of the kernel-group member it
// runs on, tracers[member]; a single-kernel build is member 0 throughout,
// so Instrument passes its one tracer as tracers[0].
func (v *Vehicle) instrument(tracers []*obs.Tracer, reg *obs.Registry) {
	trOf := func(i int) *obs.Tracer {
		if i < len(tracers) {
			return tracers[i]
		}
		return nil
	}
	if v.Group != nil {
		for i := 0; i < v.Group.Members(); i++ {
			if t := trOf(i); t != nil {
				v.Group.Kernel(i).SetTraceSink(t)
			}
		}
	} else if t := trOf(0); t != nil {
		v.Kernel.SetTraceSink(t)
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
		m := 0
		if v.Zonal != nil {
			if z, ok := v.Zonal.ZoneOf(name); ok {
				m = z.Member()
			}
		}
		v.Buses[name].Instrument(trOf(m), reg)
	}
	if v.Zonal != nil {
		v.Zonal.InstrumentZones(tracers, reg)
	} else {
		v.Gateway.Instrument(trOf(0), reg)
	}
	v.IDS.Instrument(trOf(0), reg)
	v.Audit.Instrument(reg)
	if v.OTA != nil {
		v.OTA.Instrument(trOf(0), reg)
	}
	v.Keyless.Instrument(trOf(0), reg, v.Kernel.Now)
	if reg != nil {
		reg.Probe("core/auth_failures", func() float64 { return float64(v.AuthFailures.Value) })
	}
}
