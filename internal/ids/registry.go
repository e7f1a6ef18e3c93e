package ids

import (
	"autosec/internal/netif"
)

// MediumDetector is a Detector that models one medium's native
// semantics — FlexRay TDMA ownership, the LIN schedule table, Ethernet
// addressing, SOME/IP service behaviour. The engine routes it only
// the records of its medium, so cross-media traffic never perturbs its
// state and the observe hot path skips it for every other frame.
type MediumDetector interface {
	Detector
	// Medium reports the single netif.Kind the detector understands.
	Medium() netif.Kind
}

// BaselineDetectors returns fresh instances of the historical
// medium-agnostic detector trio: the statistical models that watch every
// medium through the same (medium, identifier) keys. NewEngine installs
// them in this order, which fixes the routing and alert merge order.
func BaselineDetectors() []Detector {
	return []Detector{NewFrequencyDetector(), NewIntervalDetector(), NewSpecDetector()}
}

// MediumAwareDetectors returns fresh instances of the baseline trio plus
// the four per-medium semantic families: FlexRay slot ownership, LIN
// schedule conformance, Ethernet address anomalies and SOME/IP service
// misuse.
func MediumAwareDetectors() []Detector {
	return append(BaselineDetectors(),
		NewFlexRaySlotDetector(), NewLINScheduleDetector(), NewEthernetAddrDetector(), NewSOMEIPDetector())
}
