// Partitioned zonal fabrics: one sim.Kernel per zone, synchronized by a
// conservative sim.KernelGroup, with the Ethernet backbone as the kernel
// boundary. Each zone's gateway, local media and workloads live entirely
// on that zone's kernel; the only cross-kernel interaction is a backbone
// crossing, which the partitioned backbone models as a timestamped
// inter-kernel message arriving ingress-serialization + switch-hop +
// egress-serialization after the send — the exact per-frame timing of
// the shared ethernet.Switch backbone, so a partitioned fabric delivers
// every frame at the same virtual instant a shared one would.
//
// Because no frame can cross faster than the minimum-size crossing,
// ethernet.TunnelLookahead(hop, linkBps) bounds every message distance
// and serves as the group's lookahead: each zone dispatches whole
// windows of intra-zone events without ever seeing a cross-zone frame
// arrive in its past.
//
// The message path is allocation-free in steady state: frame payloads
// copy into pooled message nodes (netif.Frame.CopyInto reuses each
// node's buffer), delivery callbacks are prebound once per node, and
// each receiving port keeps its own node pool — minted by the sending
// zone's events, recycled after delivery by the receiving zone's.
package zonal

import (
	"errors"

	"autosec/internal/ethernet"
	"autosec/internal/netif"
	"autosec/internal/sim"
)

// NewPartitioned creates a fabric whose zones run on per-zone kernels of
// g: zone i's gateway binds to g.Kernel(i), and the backbone becomes the
// kernel boundary. hop and linkBps parameterize the modelled backbone
// switch (use 2*sim.Microsecond and ethernet.DefaultLinkBps to match the
// shared-backbone build). g's lookahead must not exceed the minimum
// backbone crossing time, or windows could outrun in-flight frames.
func NewPartitioned(g *sim.KernelGroup, hop sim.Duration, linkBps int64) *Fabric {
	if min := ethernet.TunnelLookahead(hop, linkBps); g.Lookahead() > min {
		panic("zonal: kernel-group lookahead exceeds the minimum backbone crossing time")
	}
	return &Fabric{
		group:      g,
		hop:        hop,
		linkBps:    linkBps,
		byName:     make(map[string]*Zone),
		domainZone: make(map[string]*Zone),
	}
}

// Partitioned reports whether the fabric runs one kernel per zone.
func (f *Fabric) Partitioned() bool { return f.group != nil }

// Group returns the kernel group of a partitioned fabric (nil otherwise).
func (f *Fabric) Group() *sim.KernelGroup { return f.group }

// Kernel returns the kernel the zone runs on: its member kernel in a
// partitioned fabric, the shared fabric kernel otherwise. Local media
// attached to the zone must be built on this kernel.
func (z *Zone) Kernel() *sim.Kernel { return z.k }

// Member returns the zone's kernel-group member index (0 in shared-kernel
// fabrics).
func (z *Zone) Member() int { return z.member }

// BackboneDeliveriesCount reports backbone-ingress frames this zone
// accepted and delivered locally. On partitioned fabrics, read only
// between runs.
func (z *Zone) BackboneDeliveriesCount() int64 { return z.bbDeliveries.Value }

// BackboneFramesTotal reports every frame the backbone carried: the
// shared-medium counter, or the sum of per-zone egress counters in a
// partitioned fabric. Partitioned counters are per-zone precisely so the
// hot path never shares a cache line across kernels; read totals only
// between runs.
func (f *Fabric) BackboneFramesTotal() int64 {
	if f.group == nil {
		return f.BackboneFrames.Value
	}
	var n int64
	for _, bn := range f.bb {
		n += bn.port.frames.Value
	}
	return n
}

// BackboneDeliveriesTotal reports backbone-ingress frames zones accepted
// and delivered locally, across both fabric flavors. Read only between
// runs on partitioned fabrics.
func (f *Fabric) BackboneDeliveriesTotal() int64 {
	if f.group == nil {
		return f.BackboneDeliveries.Value
	}
	var n int64
	for _, z := range f.zones {
		n += z.bbDeliveries.Value
	}
	return n
}

// RequestZoneQuarantine isolates the zone owning targetDomain, requested
// from the zone owning fromDomain — the cross-zone containment reflex
// (an IDS in one zone cutting another zone's uplink). On a shared-kernel
// fabric, or when both domains share a zone, it applies immediately; on
// a partitioned fabric the request crosses the kernel boundary as a
// timestamped control message and takes effect one backbone lookahead
// later, which is also what keeps it deterministic.
// Callable from an event on the requesting zone's kernel, or between
// runs.
func (f *Fabric) RequestZoneQuarantine(fromDomain, targetDomain string) error {
	tz, ok := f.domainZone[targetDomain]
	if !ok {
		return errors.New("zonal: unknown domain " + targetDomain)
	}
	if f.group == nil {
		return f.QuarantineZone(tz.Name)
	}
	sz, ok := f.domainZone[fromDomain]
	if !ok {
		return errors.New("zonal: unknown domain " + fromDomain)
	}
	if sz == tz {
		return f.QuarantineZone(tz.Name)
	}
	f.group.Send(sz.member, tz.member, sz.k.Now()+f.group.Lookahead(), tz.quarantineFn)
	return nil
}

// backboneNet is one zone's view of the partitioned backbone: a
// netif.Medium whose single port belongs to that zone's gateway. A send
// floods to every other zone's port (tunnel frames are broadcast, and
// gateway-port MACs are never unicast targets, matching the shared
// switch's behavior), each copy riding an inter-kernel message.
type backboneNet struct {
	fab    *Fabric
	member int
	port   *backbonePort
	taps   []netif.TapFunc
}

func (m *backboneNet) Kind() netif.Kind { return netif.Ethernet }
func (m *backboneNet) Name() string     { return "zonal-backbone" }

// Tap observes this zone's backbone egress (each frame fires exactly one
// zone's taps — its sender's — so fabric-wide tap counts see every frame
// once, like a tap on the shared switch).
func (m *backboneNet) Tap(fn netif.TapFunc) { m.taps = append(m.taps, fn) }

func (m *backboneNet) Open(name string) (netif.Port, error) {
	if m.port != nil {
		return nil, errors.New("zonal: partitioned backbone port already open")
	}
	m.port = &backbonePort{net: m, name: name}
	return m.port, nil
}

// backbonePort is the zone gateway's backbone attachment.
type backbonePort struct {
	net  *backboneNet
	name string
	recv netif.RecvFunc

	// frames counts frames this zone put on the backbone (egress).
	frames sim.Counter

	// Pooled in-flight message nodes for frames addressed *to* this
	// zone. Minted by remote sending kernels, recycled by this zone's
	// kernel after delivery.
	free []*bbMsg
}

func (p *backbonePort) Name() string                { return p.name }
func (p *backbonePort) Kind() netif.Kind            { return netif.Ethernet }
func (p *backbonePort) OnReceive(fn netif.RecvFunc) { p.recv = fn }

// Send floods the frame to every other zone. The arrival instant is
// identical for all destinations — send + ingress serialization + hop +
// egress serialization, the shared switch's exact store-and-forward
// timing — and is always at least the group lookahead away, because the
// lookahead is derived from the minimum-size crossing.
func (p *backbonePort) Send(f *netif.Frame) error {
	fab := p.net.fab
	src := p.net.member
	now := fab.zones[src].k.Now()
	p.frames.Inc()
	for _, tap := range p.net.taps {
		tap(now, f, false)
	}
	serial := ethernet.WireDuration(len(f.Payload), fab.linkBps)
	at := now + serial + fab.hop + serial
	for di := range fab.bb {
		if di == src {
			continue
		}
		dst := fab.bb[di].port
		m := dst.allocMsg()
		m.at = at
		f.CopyInto(&m.frame)
		fab.group.Send(src, di, at, m.fn)
	}
	return nil
}

// bbMsg is one pooled in-flight backbone frame. fn is prebound to
// deliver at mint time, so re-sends through the pool allocate nothing.
type bbMsg struct {
	port  *backbonePort
	at    sim.Time
	frame netif.Frame
	fn    func()
}

func (p *backbonePort) allocMsg() *bbMsg {
	if n := len(p.free); n > 0 {
		m := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return m
	}
	m := &bbMsg{port: p}
	m.fn = m.deliver
	return m
}

// deliver runs on the receiving zone's kernel at the frame's arrival
// instant: hand the frame view to the gateway ingress, then recycle the
// node (keeping its payload buffer for reuse).
func (m *bbMsg) deliver() {
	p := m.port
	if p.recv != nil {
		p.recv(m.at, &m.frame)
	}
	p.free = append(p.free, m)
}
