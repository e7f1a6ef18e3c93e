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

// Suite is an ordered list of detector constructors: a build installs
// one detector per entry, in order, which fixes the routing and alert
// merge order. Pooled vehicles build from the suite once; their Reset
// returns the same detector objects to constructor state in place
// (Engine.ResetToBaseline), with the same routing order as a fresh
// build.
type Suite []func() Detector

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
