package ethernet

import (
	"fmt"

	"autosec/internal/netif"
	"autosec/internal/sim"
)

// This file adapts the switched Ethernet network to the netif transport
// fabric. The EtherType is the routable identifier (SOME/IP, DoIP and the
// gateway's CAN tunnel are all EtherType-multiplexed), the VLAN rides in
// Aux, and MAC addresses map onto the fabric's hardware addresses.

// FrameToNetif fills out with the fabric view of f. The payload aliases
// f.Payload (zero-copy). sender names the transmitting host when known.
func FrameToNetif(f *Frame, sender string, out *netif.Frame) {
	*out = netif.Frame{
		Medium:  netif.Ethernet,
		ID:      uint32(f.EtherType),
		Aux:     uint32(f.VLAN),
		Src:     netif.HWAddr(f.Src),
		Dst:     netif.HWAddr(f.Dst),
		Sender:  sender,
		Payload: f.Payload,
	}
}

// FrameFromNetif converts a fabric frame back to a native Ethernet frame.
// The payload is aliased, not copied. A zero Dst means broadcast.
func FrameFromNetif(nf *netif.Frame) (Frame, error) {
	if nf.Medium != netif.Ethernet {
		return Frame{}, fmt.Errorf("ethernet: cannot convert %s frame", nf.Medium)
	}
	if nf.ID > 0xFFFF {
		return Frame{}, fmt.Errorf("ethernet: EtherType %#x out of range", nf.ID)
	}
	f := Frame{
		Src:       MAC(nf.Src),
		Dst:       MAC(nf.Dst),
		VLAN:      uint16(nf.Aux),
		EtherType: uint16(nf.ID),
		Payload:   nf.Payload,
	}
	if nf.Dst.IsZero() {
		f.Dst = Broadcast
	}
	if err := f.Validate(); err != nil {
		return Frame{}, err
	}
	return f, nil
}

// netifMedium adapts one VLAN broadcast domain of a Switch to netif.Medium.
type netifMedium struct {
	sw         *Switch
	pvid       uint16
	tapScratch netif.Frame
}

// Netif returns the fabric view of the switch: ports are hosts connected
// in the given VLAN, taps are switch observers (monitor-port style).
func Netif(sw *Switch, pvid uint16) netif.Medium {
	return &netifMedium{sw: sw, pvid: pvid}
}

func (m *netifMedium) Kind() netif.Kind { return netif.Ethernet }
func (m *netifMedium) Name() string     { return m.sw.Name }

func (m *netifMedium) Open(name string) (netif.Port, error) {
	// Locally-administered MACs in a block unlikely to collide with the
	// LocalMAC(n) addresses scenario code hands out by small integer.
	h := NewHost(name, LocalMAC(0xA0000|uint32(len(m.sw.ports))))
	m.sw.Connect(h, m.pvid)
	return &netifPort{host: h}, nil
}

func (m *netifMedium) Tap(fn netif.TapFunc) {
	m.sw.Observe(func(at sim.Time, f *Frame, in *Port) {
		name := ""
		if in != nil && in.host != nil {
			name = in.host.Name
		}
		FrameToNetif(f, name, &m.tapScratch)
		fn(at, &m.tapScratch, false)
	})
}

// netifPort adapts a Host to netif.Port.
type netifPort struct {
	host        *Host
	recvScratch netif.Frame
}

func (p *netifPort) Name() string     { return p.host.Name }
func (p *netifPort) Kind() netif.Kind { return netif.Ethernet }

func (p *netifPort) Send(f *netif.Frame) error {
	ef, err := FrameFromNetif(f)
	if err != nil {
		return err
	}
	return p.host.Send(ef)
}

func (p *netifPort) OnReceive(fn netif.RecvFunc) {
	p.host.OnReceive(func(at sim.Time, f *Frame) {
		FrameToNetif(f, "", &p.recvScratch)
		fn(at, &p.recvScratch)
	})
}
