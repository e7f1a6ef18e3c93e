// Package secoc implements AUTOSAR SecOC-style secure onboard
// communication: each protected PDU carries a truncated freshness value
// and a truncated CMAC computed over (data ID ‖ payload ‖ full freshness
// value). The receiver reconstructs the full freshness counter from its
// last accepted value plus the truncated bits, verifies the MAC, and
// enforces monotonicity — giving CAN-sized frames replay protection and
// authentication within a handful of bytes.
//
// This is the production-practice refinement of core.AuthenticatedSend:
// the experiments' ablation A1 sweeps the truncation widths to show the
// bandwidth/security trade the paper's real-time discussion implies.
package secoc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"autosec/internal/she"
)

// MACFunc computes a full-width MAC over a message. Adapters exist for
// raw keys and SHE slots.
type MACFunc func(msg []byte) ([]byte, error)

// KeyMAC builds a MACFunc from a raw 128-bit key.
func KeyMAC(key [16]byte) MACFunc {
	return func(msg []byte) ([]byte, error) { return she.CMAC(key[:], msg) }
}

// SHEMAC builds a MACFunc from a SHE engine slot, so key material stays
// inside the (simulated) hardware.
func SHEMAC(e *she.Engine, slot she.KeyID) MACFunc {
	return func(msg []byte) ([]byte, error) { return e.GenerateMAC(slot, msg) }
}

// Config fixes a channel's wire format. Both sides must agree.
type Config struct {
	// DataID distinguishes channels under a shared key (prevents
	// cross-channel splicing).
	DataID uint16
	// FreshnessBits is the truncated counter width on the wire (1..32).
	FreshnessBits int
	// MACBits is the truncated MAC width on the wire (8..128, byte
	// aligned for simplicity).
	MACBits int
	// AcceptWindow bounds how far ahead of the last accepted counter a
	// received freshness value may be (tolerates loss); default 256.
	AcceptWindow uint64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.FreshnessBits < 1 || c.FreshnessBits > 32 {
		return errors.New("secoc: freshness bits must be 1..32")
	}
	if c.MACBits < 8 || c.MACBits > 128 || c.MACBits%8 != 0 {
		return errors.New("secoc: MAC bits must be 8..128, byte aligned")
	}
	return nil
}

// Overhead reports the wire bytes added to each payload.
func (c Config) Overhead() int {
	return (c.FreshnessBits+7)/8 + c.MACBits/8
}

// ForgeProbability is the chance a random MAC guess passes — the security
// level purchased by MACBits.
func (c Config) ForgeProbability() float64 {
	return math.Pow(2, -float64(c.MACBits))
}

// Errors.
var (
	ErrTooShort = errors.New("secoc: PDU shorter than trailer")
	ErrAuth     = errors.New("secoc: authentication failed")
	ErrReplay   = errors.New("secoc: freshness not acceptable (replay or stale)")
)

// Sender produces secured PDUs.
type Sender struct {
	cfg Config
	mac MACFunc
	fv  uint64

	Sent int64
}

// NewSender creates a sender starting at freshness 0.
func NewSender(cfg Config, mac MACFunc) (*Sender, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Sender{cfg: cfg, mac: mac}, nil
}

// authInput builds the MAC input: dataID ‖ payload ‖ full FV.
func authInput(dataID uint16, payload []byte, fv uint64) []byte {
	buf := make([]byte, 0, 2+len(payload)+8)
	var tmp [8]byte
	binary.BigEndian.PutUint16(tmp[:2], dataID)
	buf = append(buf, tmp[:2]...)
	buf = append(buf, payload...)
	binary.BigEndian.PutUint64(tmp[:], fv)
	return append(buf, tmp[:]...)
}

// Protect wraps a payload into a secured PDU: payload ‖ truncFV ‖ truncMAC.
func (s *Sender) Protect(payload []byte) ([]byte, error) {
	s.fv++
	mac, err := s.mac(authInput(s.cfg.DataID, payload, s.fv))
	if err != nil {
		return nil, err
	}
	s.Sent++
	fvBytes := (s.cfg.FreshnessBits + 7) / 8
	macBytes := s.cfg.MACBits / 8
	out := make([]byte, 0, len(payload)+fvBytes+macBytes)
	out = append(out, payload...)
	mask := uint64(1)<<uint(s.cfg.FreshnessBits) - 1
	tfv := s.fv & mask
	for i := fvBytes - 1; i >= 0; i-- {
		out = append(out, byte(tfv>>uint(8*i)))
	}
	return append(out, mac[:macBytes]...), nil
}

// Receiver verifies secured PDUs.
type Receiver struct {
	cfg  Config
	mac  MACFunc
	last uint64

	Accepted int64
	Rejected int64
}

// NewReceiver creates a receiver expecting counters above 0.
func NewReceiver(cfg Config, mac MACFunc) (*Receiver, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.AcceptWindow == 0 {
		cfg.AcceptWindow = 256
	}
	return &Receiver{cfg: cfg, mac: mac}, nil
}

// Verify authenticates a secured PDU and returns the bare payload. On
// success the receiver's freshness state advances; failures leave it
// untouched.
func (r *Receiver) Verify(pdu []byte) ([]byte, error) {
	fvBytes := (r.cfg.FreshnessBits + 7) / 8
	macBytes := r.cfg.MACBits / 8
	trailer := fvBytes + macBytes
	if len(pdu) < trailer {
		r.Rejected++
		return nil, ErrTooShort
	}
	payload := pdu[:len(pdu)-trailer]
	fvField := pdu[len(pdu)-trailer : len(pdu)-macBytes]
	gotMAC := pdu[len(pdu)-macBytes:]

	var tfv uint64
	for _, b := range fvField {
		tfv = tfv<<8 | uint64(b)
	}
	mask := uint64(1)<<uint(r.cfg.FreshnessBits) - 1
	tfv &= mask

	// Reconstruct the full counter: the smallest value above last whose
	// low bits match the received truncation.
	candidate := (r.last & ^mask) | tfv
	if candidate <= r.last {
		candidate += mask + 1
	}
	if candidate-r.last > r.cfg.AcceptWindow {
		r.Rejected++
		return nil, fmt.Errorf("%w: jump %d exceeds window %d", ErrReplay, candidate-r.last, r.cfg.AcceptWindow)
	}
	want, err := r.mac(authInput(r.cfg.DataID, payload, candidate))
	if err != nil {
		r.Rejected++
		return nil, err
	}
	if !constEq(want[:macBytes], gotMAC) {
		r.Rejected++
		return nil, ErrAuth
	}
	r.last = candidate
	r.Accepted++
	return payload, nil
}

// Last reports the last accepted freshness counter.
func (r *Receiver) Last() uint64 { return r.last }

func constEq(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	var diff byte
	for i := range a {
		diff |= a[i] ^ b[i]
	}
	return diff == 0
}
