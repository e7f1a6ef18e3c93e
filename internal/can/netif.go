package can

import (
	"fmt"

	"autosec/internal/netif"
	"autosec/internal/sim"
)

// This file adapts the CAN bus to the netif transport fabric. The adapter
// direction is one-way by design: can imports netif, never the reverse.

// FrameToNetif fills out with the fabric view of f. The payload aliases
// f.Data (zero-copy); out is only as durable as f.
func FrameToNetif(f *Frame, sender string, out *netif.Frame) {
	var flags uint16
	if f.Extended {
		flags |= netif.FlagExtended
	}
	if f.Remote {
		flags |= netif.FlagRemote
	}
	if f.FD {
		flags |= netif.FlagFD
	}
	if f.BRS {
		flags |= netif.FlagBRS
	}
	*out = netif.Frame{
		Medium:   netif.CAN,
		ID:       uint32(f.ID),
		Flags:    flags,
		Priority: uint32(f.ID),
		Sender:   sender,
		Payload:  f.Data,
	}
}

// NetifRecord returns the trace record of f as sent by sender and
// completed at time at. The record's payload aliases f.Data: the caller
// hands the buffer over to the trace.
func NetifRecord(at sim.Time, f Frame, sender string) netif.Record {
	r := netif.Record{At: at}
	FrameToNetif(&f, sender, &r.Frame)
	return r
}

// FrameFromNetif converts a fabric frame back to a native CAN frame. The
// payload is aliased, not copied (Controller.Send clones on enqueue).
func FrameFromNetif(nf *netif.Frame) (Frame, error) {
	if nf.Medium != netif.CAN {
		return Frame{}, fmt.Errorf("can: cannot convert %s frame", nf.Medium)
	}
	f := Frame{
		ID:       ID(nf.ID),
		Extended: nf.Flags&netif.FlagExtended != 0,
		Remote:   nf.Flags&netif.FlagRemote != 0,
		FD:       nf.Flags&netif.FlagFD != 0,
		BRS:      nf.Flags&netif.FlagBRS != 0,
		Data:     nf.Payload,
	}
	if err := f.Validate(); err != nil {
		return Frame{}, err
	}
	return f, nil
}

// netifMedium adapts a Bus to netif.Medium.
type netifMedium struct {
	bus *Bus
	// tapScratch is reused across tap callbacks so the per-frame conversion
	// allocates nothing; taps run synchronously and must clone to retain.
	tapScratch netif.Frame
}

// Netif returns the fabric view of the bus: ports are CAN controllers,
// taps are sniffers.
func Netif(b *Bus) netif.Medium { return &netifMedium{bus: b} }

func (m *netifMedium) Kind() netif.Kind { return netif.CAN }
func (m *netifMedium) Name() string     { return m.bus.Name }

func (m *netifMedium) Open(name string) (netif.Port, error) {
	c := NewController(name)
	m.bus.Attach(c)
	return &netifPort{ctrl: c}, nil
}

func (m *netifMedium) Tap(fn netif.TapFunc) {
	m.bus.Sniff(func(at sim.Time, f *Frame, sender *Controller, corrupted bool) {
		name := ""
		if sender != nil {
			name = sender.Name
		}
		FrameToNetif(f, name, &m.tapScratch)
		fn(at, &m.tapScratch, corrupted)
	})
}

// netifPort adapts a Controller to netif.Port.
type netifPort struct {
	ctrl        *Controller
	recvScratch netif.Frame
}

func (p *netifPort) Name() string     { return p.ctrl.Name }
func (p *netifPort) Kind() netif.Kind { return netif.CAN }

func (p *netifPort) Send(f *netif.Frame) error {
	nf, err := FrameFromNetif(f)
	if err != nil {
		return err
	}
	return p.ctrl.Send(nf, nil)
}

func (p *netifPort) OnReceive(fn netif.RecvFunc) {
	p.ctrl.OnReceive(func(at sim.Time, f *Frame, sender *Controller) {
		name := ""
		if sender != nil {
			name = sender.Name
		}
		FrameToNetif(f, name, &p.recvScratch)
		fn(at, &p.recvScratch)
	})
}
