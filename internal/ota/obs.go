package ota

import (
	"errors"

	"autosec/internal/obs"
)

// Instrument attaches the client to the observability layer (either
// argument may be nil).
//
// Trace events (subsystem "ota"): every Apply emits a "verify" instant
// when verification starts, then either "install" (Str = vehicle ID,
// Arg1 = number of targets committed) or "reject" (Str = a stable error
// class: bad-signature, rollback, equivocation, expired, wrong-vehicle,
// mix-and-match, wrong-hw, hash-mismatch, incomplete, or error).
//
// Metrics: ota/installed and ota/rejected probe the client's counters.
func (c *Client) Instrument(tr *obs.Tracer, reg *obs.Registry) {
	if tr != nil {
		c.obsTr = tr
		c.obsSub = tr.Label("ota")
		c.obsVerify = tr.Label("verify")
		c.obsInstall = tr.Label("install")
		c.obsReject = tr.Label("reject")
	}
	if reg != nil {
		reg.Probe("ota/installed", func() float64 { return float64(c.Installed.Value) })
		reg.Probe("ota/rejected", func() float64 { return float64(c.Rejected.Value) })
	}
}

// errClass maps an Apply error to a stable, bounded label set, so tracing
// a hostile bundle stream cannot grow the label table without bound the
// way interning raw error strings (which embed versions and names) would.
func errClass(err error) string {
	switch {
	case errors.Is(err, ErrBadSignature):
		return "bad-signature"
	case errors.Is(err, ErrRollback):
		return "rollback"
	case errors.Is(err, ErrEquivocation):
		return "equivocation"
	case errors.Is(err, ErrExpiredMeta):
		return "expired"
	case errors.Is(err, ErrWrongVehicle):
		return "wrong-vehicle"
	case errors.Is(err, ErrMixAndMatch):
		return "mix-and-match"
	case errors.Is(err, ErrWrongHW):
		return "wrong-hw"
	case errors.Is(err, ErrHashMismatch):
		return "hash-mismatch"
	case errors.Is(err, ErrIncomplete):
		return "incomplete"
	default:
		return "error"
	}
}
