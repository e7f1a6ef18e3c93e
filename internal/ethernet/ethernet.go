// Package ethernet simulates a switched automotive Ethernet network: a
// store-and-forward switch with MAC learning, 802.1Q VLAN separation and
// per-port ingress policing (token bucket).
//
// In the paper's Secure Networks layer, automotive Ethernet is the
// next-generation IVN that is "supposed to provide more intrusion
// detection capabilities and stricter separation" than CAN/LIN/FlexRay.
// The simulation makes those two properties concrete: VLANs provide the
// separation, and per-port policing plus the switch's observation hooks
// provide the enforcement points.
package ethernet

import (
	"errors"
	"fmt"
	"math"

	"autosec/internal/sim"
)

// MAC is a 48-bit hardware address.
type MAC [6]byte

// Broadcast is the all-ones broadcast address.
var Broadcast = MAC{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}

// String renders the address in colon notation.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// IsBroadcast reports whether the address is the broadcast address.
func (m MAC) IsBroadcast() bool { return m == Broadcast }

// LocalMAC derives a locally-administered MAC from a small integer,
// convenient for tests and scenario builders.
func LocalMAC(n uint32) MAC {
	return MAC{0x02, 0x00, byte(n >> 24), byte(n >> 16), byte(n >> 8), byte(n)}
}

// Frame is an Ethernet frame with an 802.1Q VLAN tag.
type Frame struct {
	Src, Dst  MAC
	VLAN      uint16 // 1..4094; 0 means untagged (mapped to the port's PVID)
	EtherType uint16
	Payload   []byte
}

// WireBytes returns the on-wire size including header, VLAN tag, FCS,
// preamble and IFG, with minimum-frame padding applied.
func (f *Frame) WireBytes() int { return wireBytes(len(f.Payload)) }

func wireBytes(payloadLen int) int {
	n := payloadLen
	if n < 46 {
		n = 46
	}
	// 14 header + 4 VLAN + payload + 4 FCS + 8 preamble + 12 IFG.
	return 14 + 4 + n + 4 + 8 + 12
}

// Validate checks frame invariants.
var ErrFrameTooBig = errors.New("ethernet: payload exceeds 1500 bytes")

func (f *Frame) Validate() error {
	if len(f.Payload) > 1500 {
		return fmt.Errorf("%w: %d", ErrFrameTooBig, len(f.Payload))
	}
	if f.VLAN > 4094 {
		return errors.New("ethernet: VLAN id out of range")
	}
	return nil
}

// ReceiveFunc handles a frame arriving at a host. The frame and its
// payload are valid only for the duration of the call: the switch reuses
// the buffer for later frames, so a handler that keeps any of it must
// copy it.
type ReceiveFunc func(at sim.Time, f *Frame)

// Host is an end node attached to one switch port.
type Host struct {
	Name     string
	Addr     MAC
	port     *Port
	handlers []ReceiveFunc

	FramesSent     sim.Counter
	FramesReceived sim.Counter
}

// NewHost creates a detached host.
func NewHost(name string, addr MAC) *Host {
	return &Host{Name: name, Addr: addr}
}

// OnReceive registers a delivery handler.
func (h *Host) OnReceive(fn ReceiveFunc) { h.handlers = append(h.handlers, fn) }

// Send transmits a frame out of the host's port. The source address is
// forced to the host's own MAC unless Spoof is used. The switch copies
// the payload on ingress, so the caller may reuse its buffer as soon as
// Send returns.
func (h *Host) Send(f Frame) error {
	f.Src = h.Addr
	return h.send(f)
}

// Spoof transmits a frame with an arbitrary source address — the attack
// primitive for MAC spoofing scenarios.
func (h *Host) Spoof(f Frame) error { return h.send(f) }

func (h *Host) send(f Frame) error {
	if h.port == nil {
		return errors.New("ethernet: host not attached")
	}
	if err := f.Validate(); err != nil {
		return err
	}
	h.FramesSent.Inc()
	return h.port.ingress(&f)
}

func (h *Host) deliver(at sim.Time, f *Frame) {
	h.FramesReceived.Inc()
	for _, fn := range h.handlers {
		fn(at, f)
	}
}

// Policer is a token-bucket ingress rate limiter.
type Policer struct {
	// RateBps is the sustained allowed rate in bytes per second.
	RateBps float64
	// BurstBytes is the bucket depth.
	BurstBytes float64

	tokens float64
	last   sim.Time
	inited bool
}

// Allow consumes n bytes of credit at virtual time now; it reports false
// (and drops nothing from the bucket) when credit is insufficient. The
// bucket starts full.
func (p *Policer) Allow(now sim.Time, n int) bool {
	if p.RateBps <= 0 {
		return true // unconfigured policer admits everything
	}
	if !p.inited {
		p.inited = true
		p.tokens = p.BurstBytes
		p.last = now
	}
	dt := (now - p.last).Seconds()
	p.last = now
	p.tokens = math.Min(p.BurstBytes, p.tokens+dt*p.RateBps)
	if p.tokens < float64(n) {
		return false
	}
	p.tokens -= float64(n)
	return true
}

// Port is one switch port.
type Port struct {
	ID   int
	sw   *Switch
	host *Host
	// PVID is the VLAN assigned to untagged ingress frames.
	PVID uint16
	// Allowed is the set of VLANs this port may carry; empty means PVID only.
	Allowed map[uint16]bool
	// Police is the optional ingress policer.
	Police *Policer
	// LinkBps is the port speed in bits per second (default 100 Mbit/s).
	LinkBps int64

	Dropped sim.Counter
}

func (p *Port) carries(vlan uint16) bool {
	if len(p.Allowed) == 0 {
		return vlan == p.PVID
	}
	return p.Allowed[vlan]
}

// ingress admits the sender's frame f (untagged frames take the port's
// PVID) and copies it into an in-flight node for the switch.
func (p *Port) ingress(f *Frame) error {
	now := p.sw.kernel.Now()
	if f.VLAN == 0 {
		f.VLAN = p.PVID
	}
	if !p.carries(f.VLAN) {
		p.Dropped.Inc()
		p.sw.VLANViolations.Inc()
		return nil // silently dropped, as a real switch would
	}
	if p.Police != nil && !p.Police.Allow(now, f.WireBytes()) {
		p.Dropped.Inc()
		p.sw.Policed.Inc()
		return nil
	}
	// Store-and-forward: serialize on the ingress link, then switch.
	n := p.sw.alloc(p, f)
	p.sw.kernel.After(WireDuration(len(f.Payload), p.LinkBps)+p.sw.Latency, n.ingressFn)
	return nil
}

// Switch is a learning, VLAN-aware Ethernet switch.
type Switch struct {
	Name    string
	kernel  *sim.Kernel
	ports   []*Port
	table   map[macVLAN]*Port
	Latency sim.Duration // fixed processing latency

	FramesForwarded sim.Counter
	FramesFlooded   sim.Counter
	VLANViolations  sim.Counter
	Policed         sim.Counter

	observers []func(at sim.Time, f *Frame, in *Port)

	// nodes is every in-flight node the switch ever created; free holds
	// the idle ones.
	nodes []*inflight
	free  []*inflight

	// base is the post-construction snapshot recorded by MarkBaseline for
	// pooled reuse; see ResetToBaseline.
	base swBaseline
}

type macVLAN struct {
	mac  MAC
	vlan uint16
}

// NewSwitch creates a switch with the given fixed processing latency.
func NewSwitch(k *sim.Kernel, name string, latency sim.Duration) *Switch {
	return &Switch{Name: name, kernel: k, table: make(map[macVLAN]*Port), Latency: latency}
}

// Connect attaches a host on a new port in the given VLAN. Returns the
// port for further configuration (policer, trunk VLANs).
func (s *Switch) Connect(h *Host, pvid uint16) *Port {
	p := &Port{ID: len(s.ports), sw: s, host: h, PVID: pvid, LinkBps: 100_000_000}
	h.port = p
	s.ports = append(s.ports, p)
	return p
}

// Observe registers a monitor-port style observer of all frames entering
// the switching fabric. As with ReceiveFunc, the frame and its payload
// are valid only for the duration of the call.
func (s *Switch) Observe(fn func(at sim.Time, f *Frame, in *Port)) {
	s.observers = append(s.observers, fn)
}

// inflight is one pooled frame inside the switch: on ingress it waits
// out serialization plus the switch latency before forward, on egress
// it waits out serialization on port before delivery. The node owns its
// payload buffer and reuses it for later frames; ingressFn and egressFn
// are bound once when the node is created, so a warm switch moves
// frames without allocating.
type inflight struct {
	sw        *Switch
	port      *Port
	frame     Frame
	ingressFn func()
	egressFn  func()
}

// alloc takes an idle node (or creates one) and copies f into it.
func (s *Switch) alloc(p *Port, f *Frame) *inflight {
	var n *inflight
	if k := len(s.free); k > 0 {
		n = s.free[k-1]
		s.free[k-1] = nil
		s.free = s.free[:k-1]
	} else {
		n = &inflight{sw: s}
		n.ingressFn = n.ingress
		n.egressFn = n.egress
		s.nodes = append(s.nodes, n)
	}
	n.port = p
	buf := n.frame.Payload[:0]
	n.frame = *f
	n.frame.Payload = append(buf, f.Payload...)
	return n
}

func (n *inflight) ingress() {
	n.sw.forward(n.port, &n.frame)
	n.sw.free = append(n.sw.free, n)
}

func (n *inflight) egress() {
	n.port.host.deliver(n.sw.kernel.Now(), &n.frame)
	n.sw.free = append(n.sw.free, n)
}

func (s *Switch) forward(in *Port, f *Frame) {
	now := s.kernel.Now()
	for _, fn := range s.observers {
		fn(now, f, in)
	}
	// Learn the source.
	s.table[macVLAN{f.Src, f.VLAN}] = in

	if !f.Dst.IsBroadcast() {
		if out, ok := s.table[macVLAN{f.Dst, f.VLAN}]; ok {
			if out != in {
				s.FramesForwarded.Inc()
				s.egress(in, out, f)
			}
			return
		}
	}
	// Flood within the VLAN.
	s.FramesFlooded.Inc()
	for _, p := range s.ports {
		s.egress(in, p, f)
	}
}

// egress copies f into a node that delivers it out of p after egress
// serialization, unless p is the ingress port, has no host or does not
// carry f's VLAN.
func (s *Switch) egress(in, p *Port, f *Frame) {
	if p == in || p.host == nil || !p.carries(f.VLAN) {
		return
	}
	n := s.alloc(p, f)
	s.kernel.After(WireDuration(len(f.Payload), p.LinkBps), n.egressFn)
}
