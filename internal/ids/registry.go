package ids

import (
	"autosec/internal/netif"
)

// MediumDetector is a Detector that models one medium's native
// semantics — FlexRay TDMA ownership, the LIN schedule table, Ethernet
// addressing, SOME/IP service behaviour. The registry routes it only
// the records of its medium, so cross-media traffic never perturbs its
// state and the observe hot path skips it for every other frame.
type MediumDetector interface {
	Detector
	// Medium reports the single netif.Kind the detector understands.
	Medium() netif.Kind
}

// Registry is the medium-keyed detector table at the heart of the
// engine. Medium-agnostic detectors (the statistical families) sit in
// the global set and see every record; MediumDetectors sit in dense
// per-kind buckets and see only their own medium's records.
//
// Alert merge order is deterministic by construction: for each record,
// global detectors run first in install order, then the record's
// medium bucket in install order. Install order is the Register call
// order, so two runs that install the same detectors the same way
// produce byte-identical alert streams.
type Registry struct {
	global []Detector
	byKind [netif.NumKinds][]Detector
}

// Register installs a detector: MediumDetectors route to their
// medium's bucket, everything else to the global set.
func (r *Registry) Register(d Detector) {
	if md, ok := d.(MediumDetector); ok {
		k := md.Medium()
		if int(k) < len(r.byKind) {
			r.byKind[k] = append(r.byKind[k], d)
			return
		}
	}
	r.global = append(r.global, d)
}

// Remove uninstalls the first detector with the given name, searching
// the global set first, then the media buckets in Kind order. It
// reports whether one was found.
func (r *Registry) Remove(name string) bool {
	if removeNamed(&r.global, name) {
		return true
	}
	for k := range r.byKind {
		if removeNamed(&r.byKind[k], name) {
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

// Names lists the installed detector names in routing order: the
// global set, then each medium bucket in Kind order.
func (r *Registry) Names() []string {
	out := make([]string, 0, r.Len())
	for _, d := range r.global {
		out = append(out, d.Name())
	}
	for k := range r.byKind {
		for _, d := range r.byKind[k] {
			out = append(out, d.Name())
		}
	}
	return out
}

// Len reports the installed detector count.
func (r *Registry) Len() int {
	n := len(r.global)
	for k := range r.byKind {
		n += len(r.byKind[k])
	}
	return n
}

// Train trains every installed detector on the clean reference trace,
// in routing order.
func (r *Registry) Train(trace *netif.Trace) {
	for _, d := range r.global {
		d.Train(trace)
	}
	for k := range r.byKind {
		for _, d := range r.byKind[k] {
			d.Train(trace)
		}
	}
}

// Clear empties the registry, nilling slots so detector state is
// collectable, and keeps the backing arrays for reuse.
func (r *Registry) Clear() {
	for i := range r.global {
		r.global[i] = nil
	}
	r.global = r.global[:0]
	for k := range r.byKind {
		for i := range r.byKind[k] {
			r.byKind[k][i] = nil
		}
		r.byKind[k] = r.byKind[k][:0]
	}
}

// Suite is an ordered list of detector constructors. Detectors are
// stateful, so pooled vehicles rebuild their detection plane from the
// suite on every Reset — same constructors, same order, byte-identical
// routing and alert merge order as a fresh build.
type Suite []func() Detector

// Build constructs one fresh detector instance per entry, in order.
func (s Suite) Build() []Detector {
	out := make([]Detector, 0, len(s))
	for _, f := range s {
		out = append(out, f())
	}
	return out
}

// BaselineSuite is the historical medium-agnostic detector trio: the
// statistical models that watch every medium through the same
// (medium, identifier) keys.
func BaselineSuite() Suite {
	return Suite{
		func() Detector { return NewFrequencyDetector() },
		func() Detector { return NewIntervalDetector() },
		func() Detector { return NewSpecDetector() },
	}
}

// MediumAwareSuite is the baseline trio plus the four per-medium
// semantic families: FlexRay slot ownership, LIN schedule conformance,
// Ethernet address anomalies and SOME/IP service misuse.
func MediumAwareSuite() Suite {
	return append(BaselineSuite(),
		func() Detector { return NewFlexRaySlotDetector() },
		func() Detector { return NewLINScheduleDetector() },
		func() Detector { return NewEthernetAddrDetector() },
		func() Detector { return NewSOMEIPDetector() },
	)
}
