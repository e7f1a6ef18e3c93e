package ethernet

import "autosec/internal/sim"

// Pooled-vehicle lifecycle support. MarkBaseline snapshots the switch's
// post-construction topology — ports, their VLAN/policer/link config, the
// hosts behind them, observers — and ResetToBaseline rewinds to it:
// scenario ports are detached, the MAC learning table is flushed, policer
// buckets and every counter reset. Port truncation matters beyond
// hygiene: the netif adapter derives host MACs from the port count at
// Open time, so a reset switch must hand out the same addresses a fresh
// one would.

// portBaseline is the sealed post-construction config of one Port.
type portBaseline struct {
	pvid    uint16
	allowed []uint16 // sorted insertion-free snapshot of the Allowed set
	police  *Policer
	rate    float64
	burst   float64
	linkBps int64
	// host wiring
	handlers int
}

// swBaseline is the sealed post-construction state of a Switch.
type swBaseline struct {
	sealed    bool
	observers int
	latency   sim.Duration
	ports     []portBaseline
}

// MarkBaseline records the switch's current topology as the reset target.
func (s *Switch) MarkBaseline() {
	b := swBaseline{
		sealed:    true,
		observers: len(s.observers),
		latency:   s.Latency,
		ports:     make([]portBaseline, len(s.ports)),
	}
	for i, p := range s.ports {
		pb := portBaseline{
			pvid:    p.PVID,
			police:  p.Police,
			linkBps: p.LinkBps,
		}
		for vlan := range p.Allowed {
			pb.allowed = append(pb.allowed, vlan)
		}
		if p.Police != nil {
			pb.rate = p.Police.RateBps
			pb.burst = p.Police.BurstBytes
		}
		if p.host != nil {
			pb.handlers = len(p.host.handlers)
		}
		b.ports[i] = pb
	}
	s.base = b
}

// ResetToBaseline rewinds the switch to its MarkBaseline snapshot. The
// kernel must have been Reset first: in-flight serialization events are
// gone with the queue, so every in-flight node returns to the free list.
func (s *Switch) ResetToBaseline() {
	if !s.base.sealed {
		panic("ethernet: ResetToBaseline before MarkBaseline")
	}
	for i := len(s.base.ports); i < len(s.ports); i++ {
		if h := s.ports[i].host; h != nil {
			h.port = nil
		}
		s.ports[i] = nil
	}
	s.ports = s.ports[:len(s.base.ports)]
	for i, p := range s.ports {
		pb := &s.base.ports[i]
		p.PVID = pb.pvid
		if len(p.Allowed) > 0 || len(pb.allowed) > 0 {
			for vlan := range p.Allowed {
				delete(p.Allowed, vlan)
			}
			for _, vlan := range pb.allowed {
				if p.Allowed == nil {
					p.Allowed = make(map[uint16]bool)
				}
				p.Allowed[vlan] = true
			}
		}
		p.Police = pb.police
		if p.Police != nil {
			p.Police.RateBps = pb.rate
			p.Police.BurstBytes = pb.burst
			p.Police.tokens = 0
			p.Police.last = 0
			p.Police.inited = false
		}
		p.LinkBps = pb.linkBps
		p.Dropped.Value = 0
		if h := p.host; h != nil {
			for j := pb.handlers; j < len(h.handlers); j++ {
				h.handlers[j] = nil
			}
			h.handlers = h.handlers[:pb.handlers]
			h.FramesSent.Value = 0
			h.FramesReceived.Value = 0
		}
	}
	for k := range s.table {
		delete(s.table, k)
	}
	s.Latency = s.base.latency
	s.FramesForwarded.Value = 0
	s.FramesFlooded.Value = 0
	s.VLANViolations.Value = 0
	s.Policed.Value = 0
	for i := s.base.observers; i < len(s.observers); i++ {
		s.observers[i] = nil
	}
	s.observers = s.observers[:s.base.observers]
	for _, n := range s.nodes {
		n.port = nil // detached scenario ports must not stay reachable
	}
	s.free = append(s.free[:0], s.nodes...)
}
