// Package isotp implements the ISO 15765-2 transport protocol — the
// segmentation layer that carries diagnostics (UDS), and in practice OTA
// payload legs, over classic CAN's 8-byte frames. It supports single
// frames, first/consecutive frames with flow control (block size and
// separation time), and reassembly with the protocol's error handling.
//
// Diagnostics over ISO-TP is one of the attack surfaces behind the
// paper's remote-exploitation references [15, 16]: the Miller/Valasek
// chain drove UDS over exactly this transport. The uds package builds the
// session/security layer on top.
package isotp

import (
	"errors"
	"fmt"

	"autosec/internal/can"
	"autosec/internal/sim"
)

// PCI frame types (high nibble of byte 0).
const (
	pciSingle      = 0x0
	pciFirst       = 0x1
	pciConsecutive = 0x2
	pciFlowControl = 0x3
)

// Flow-control status values.
const (
	fcContinue = 0x0
	fcWait     = 0x1
	fcOverflow = 0x2
)

// MaxMessage is the largest payload ISO 15765-2 (2004) can carry: the
// 12-bit length field of a first frame.
const MaxMessage = 4095

// Errors.
var (
	ErrTooLong  = errors.New("isotp: message exceeds 4095 bytes")
	ErrBusy     = errors.New("isotp: transfer already in progress")
	ErrOverflow = errors.New("isotp: receiver signalled overflow")
)

// Config tunes an endpoint.
type Config struct {
	// TxID and RxID are the CAN identifiers for sending and receiving
	// (a normal-addressing ISO-TP channel is an ID pair).
	TxID, RxID can.ID
	// BlockSize is the number of consecutive frames per flow-control
	// round-trip; 0 means "send everything".
	BlockSize int
	// SeparationTime is the minimum gap the sender must leave between
	// consecutive frames.
	SeparationTime sim.Duration
	// MaxBuffer bounds reassembly memory; longer messages trigger an
	// overflow flow-control response. 0 means MaxMessage.
	MaxBuffer int
}

// Endpoint is one side of an ISO-TP channel bound to a CAN controller.
type Endpoint struct {
	kernel *sim.Kernel
	ctrl   *can.Controller
	cfg    Config

	// Receive side.
	rxBuf    []byte
	rxTotal  int
	rxSeq    byte
	rxBlock  int
	rxActive bool
	onMsg    []func(at sim.Time, payload []byte)

	// Transmit side.
	txActive bool
	txData   []byte
	txOffset int
	txSeq    byte
	txDone   func(err error)
	txWindow int

	// Stats.
	MessagesSent sim.Counter
	MessagesRecv sim.Counter
	Overflows    sim.Counter
	SeqErrors    sim.Counter
}

// New binds an endpoint to a controller already attached to a bus.
func New(k *sim.Kernel, ctrl *can.Controller, cfg Config) *Endpoint {
	if cfg.MaxBuffer <= 0 || cfg.MaxBuffer > MaxMessage {
		cfg.MaxBuffer = MaxMessage
	}
	e := &Endpoint{kernel: k, ctrl: ctrl, cfg: cfg}
	ctrl.OnReceive(func(at sim.Time, f *can.Frame, _ *can.Controller) {
		if f.ID == cfg.RxID {
			e.handle(at, f.Data)
		}
	})
	return e
}

// OnMessage registers a handler for reassembled messages.
func (e *Endpoint) OnMessage(fn func(at sim.Time, payload []byte)) {
	e.onMsg = append(e.onMsg, fn)
}

// Send transmits a payload; done (optional) fires when the transfer
// completes or fails.
func (e *Endpoint) Send(payload []byte, done func(err error)) error {
	if len(payload) > MaxMessage {
		return fmt.Errorf("%w: %d", ErrTooLong, len(payload))
	}
	if e.txActive {
		return ErrBusy
	}
	if len(payload) <= 7 {
		// Single frame: PCI nibble 0 + length.
		data := append([]byte{byte(pciSingle<<4 | len(payload))}, payload...)
		return e.ctrl.Send(can.Frame{ID: e.cfg.TxID, Data: data}, func(at sim.Time) {
			e.MessagesSent.Inc()
			if done != nil {
				done(nil)
			}
		})
	}
	// First frame: 12-bit length + first 6 bytes, then wait for FC.
	e.txActive = true
	e.txData = payload
	e.txOffset = 6
	e.txSeq = 1
	e.txDone = done
	ff := []byte{byte(pciFirst<<4 | len(payload)>>8), byte(len(payload))}
	ff = append(ff, payload[:6]...)
	return e.ctrl.Send(can.Frame{ID: e.cfg.TxID, Data: ff}, nil)
}

// finishTx clears transmit state and reports the outcome.
func (e *Endpoint) finishTx(err error) {
	done := e.txDone
	e.txActive = false
	e.txData = nil
	e.txDone = nil
	if err == nil {
		e.MessagesSent.Inc()
	}
	if done != nil {
		done(err)
	}
}

// handle processes one received protocol frame.
func (e *Endpoint) handle(at sim.Time, data []byte) {
	if len(data) == 0 {
		return
	}
	switch data[0] >> 4 {
	case pciSingle:
		n := int(data[0] & 0x0F)
		if n == 0 || n > 7 || len(data) < 1+n {
			return // malformed single frame: ignored per spec
		}
		e.MessagesRecv.Inc()
		e.deliver(at, append([]byte(nil), data[1:1+n]...))
	case pciFirst:
		if len(data) < 8 {
			return
		}
		total := int(data[0]&0x0F)<<8 | int(data[1])
		if total > e.cfg.MaxBuffer {
			e.Overflows.Inc()
			e.sendFC(fcOverflow)
			return
		}
		e.rxActive = true
		e.rxTotal = total
		e.rxBuf = append(e.rxBuf[:0], data[2:8]...)
		e.rxSeq = 1
		e.rxBlock = 0
		e.sendFC(fcContinue)
	case pciConsecutive:
		if !e.rxActive {
			return // stray CF: ignored
		}
		seq := data[0] & 0x0F
		if seq != e.rxSeq&0x0F {
			e.SeqErrors.Inc()
			e.rxActive = false
			return
		}
		e.rxSeq++
		need := e.rxTotal - len(e.rxBuf)
		chunk := data[1:]
		if len(chunk) > need {
			chunk = chunk[:need]
		}
		e.rxBuf = append(e.rxBuf, chunk...)
		if len(e.rxBuf) >= e.rxTotal {
			e.rxActive = false
			e.MessagesRecv.Inc()
			e.deliver(at, append([]byte(nil), e.rxBuf...))
			return
		}
		if e.cfg.BlockSize > 0 {
			e.rxBlock++
			if e.rxBlock >= e.cfg.BlockSize {
				e.rxBlock = 0
				e.sendFC(fcContinue)
			}
		}
	case pciFlowControl:
		if !e.txActive || len(data) < 3 {
			return
		}
		switch data[0] & 0x0F {
		case fcOverflow:
			e.finishTx(ErrOverflow)
		case fcWait:
			// Wait for the next FC; nothing to do.
		case fcContinue:
			bs := int(data[1])
			e.txWindow = bs // 0 = unlimited
			st := decodeSeparationTime(data[2])
			e.pumpConsecutive(st)
		}
	}
}

// sendFC emits a flow-control frame reflecting this endpoint's receive
// parameters.
func (e *Endpoint) sendFC(status byte) {
	st := encodeSeparationTime(e.cfg.SeparationTime)
	data := []byte{byte(pciFlowControl<<4) | status, byte(e.cfg.BlockSize), st}
	_ = e.ctrl.Send(can.Frame{ID: e.cfg.TxID, Data: data}, nil)
}

// pumpConsecutive sends up to the granted window of consecutive frames,
// pacing by the receiver's separation time.
func (e *Endpoint) pumpConsecutive(st sim.Duration) {
	if !e.txActive {
		return
	}
	sent := 0
	var step func()
	step = func() {
		if !e.txActive {
			return
		}
		rem := len(e.txData) - e.txOffset
		if rem <= 0 {
			e.finishTx(nil)
			return
		}
		n := rem
		if n > 7 {
			n = 7
		}
		data := append([]byte{byte(pciConsecutive<<4) | e.txSeq&0x0F}, e.txData[e.txOffset:e.txOffset+n]...)
		e.txSeq++
		e.txOffset += n
		sent++
		last := e.txOffset >= len(e.txData)
		windowDone := e.txWindow > 0 && sent >= e.txWindow
		err := e.ctrl.Send(can.Frame{ID: e.cfg.TxID, Data: data}, func(sim.Time) {
			if last {
				e.finishTx(nil)
				return
			}
			if windowDone {
				return // wait for the receiver's next flow control
			}
			if st > 0 {
				e.kernel.After(st, step)
			} else {
				step()
			}
		})
		if err != nil {
			e.finishTx(err)
		}
	}
	step()
}

func (e *Endpoint) deliver(at sim.Time, payload []byte) {
	for _, fn := range e.onMsg {
		fn(at, payload)
	}
}

// encodeSeparationTime maps a duration to the STmin byte (0-127 ms, or
// F1-F9 for 100-900us).
func encodeSeparationTime(d sim.Duration) byte {
	if d <= 0 {
		return 0
	}
	if d < sim.Millisecond {
		us := int(d / (100 * sim.Microsecond))
		if us < 1 {
			us = 1
		}
		if us > 9 {
			us = 9
		}
		return byte(0xF0 + us)
	}
	ms := int(d / sim.Millisecond)
	if ms > 127 {
		ms = 127
	}
	return byte(ms)
}

// decodeSeparationTime inverts encodeSeparationTime.
func decodeSeparationTime(b byte) sim.Duration {
	switch {
	case b <= 0x7F:
		return sim.Duration(b) * sim.Millisecond
	case b >= 0xF1 && b <= 0xF9:
		return sim.Duration(b-0xF0) * 100 * sim.Microsecond
	default:
		return 127 * sim.Millisecond // reserved values: be conservative
	}
}
