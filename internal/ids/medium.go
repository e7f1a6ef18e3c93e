package ids

import (
	"fmt"

	"autosec/internal/netif"
	"autosec/internal/sim"
	"autosec/internal/someip"
)

// This file holds the per-medium semantic detector families. Where the
// statistical detectors see only (key, time, payload) and catch what
// perturbs those statistics, these models encode each medium's native
// contract — who owns a TDMA slot, what the LIN schedule permits, which
// MACs exist, which services a client may use — and catch the attacks
// that leave the statistics untouched: a masquerading FlexRay sender in
// the victim's own slot, a LIN injection timed exactly between polls, a
// spoofed MAC sending well-formed traffic, a notification nobody
// subscribed to.
//
// All four implement MediumDetector, so the registry routes them only
// their own medium's records. Alert volume is episode-bounded: each
// distinct violation alerts once, then stays quiet until the state
// recovers, which keeps golden tables stable and alert floods out of
// the audit log.

// FlexRaySlotDetector learns the static-segment slot-to-owner binding
// and the dynamic-segment slot usage from clean traffic, then enforces
// TDMA position: a static frame must come from its slot's learned
// owner with a strictly advancing cycle counter, and a slot that was
// static in training must never appear in the dynamic segment.
type FlexRaySlotDetector struct {
	owner     map[uint32]string // static slot -> learned owner ("" = ambiguous)
	dynSeen   map[uint32]bool   // slots legitimately used in the dynamic segment
	lastCycle map[uint32]int64  // per static slot, last live cycle counter
	alerted   map[uint32]uint8  // per-slot episode bits (frAlert*)
}

const (
	frAlertOwner   uint8 = 1 << 0
	frAlertUnknown uint8 = 1 << 1
	frAlertSegment uint8 = 1 << 2
)

// NewFlexRaySlotDetector creates an untrained detector.
func NewFlexRaySlotDetector() *FlexRaySlotDetector {
	return &FlexRaySlotDetector{
		owner:     make(map[uint32]string),
		dynSeen:   make(map[uint32]bool),
		lastCycle: make(map[uint32]int64),
		alerted:   make(map[uint32]uint8),
	}
}

// Name implements Detector.
func (d *FlexRaySlotDetector) Name() string { return "fr-slot" }

// Medium implements MediumDetector.
func (d *FlexRaySlotDetector) Medium() netif.Kind { return netif.FlexRay }

// Reset implements Detector.
func (d *FlexRaySlotDetector) Reset() {
	clear(d.owner)
	clear(d.dynSeen)
	clear(d.lastCycle)
	clear(d.alerted)
}

// Train implements Detector: it learns slot ownership from the static
// segment and the set of dynamically used slots. A slot with multiple
// static senders in clean traffic is recorded as ambiguous and exempt
// from the ownership check.
func (d *FlexRaySlotDetector) Train(trace *netif.Trace) {
	d.Reset()
	for i := range trace.Records {
		r := &trace.Records[i]
		if r.Frame.Medium != netif.FlexRay || r.Corrupted {
			continue
		}
		id := r.Frame.ID
		if r.Frame.Flags&netif.FlagDynamic != 0 {
			d.dynSeen[id] = true
			continue
		}
		if own, seen := d.owner[id]; seen && own != r.Frame.Sender {
			d.owner[id] = ""
		} else if !seen {
			d.owner[id] = r.Frame.Sender
		}
	}
}

// Observe implements Detector.
func (d *FlexRaySlotDetector) Observe(dst []Alert, rec netif.Record) []Alert {
	if rec.Frame.Medium != netif.FlexRay || rec.Corrupted {
		return dst
	}
	id := rec.Frame.ID
	k := rec.Frame.Key()
	if rec.Frame.Flags&netif.FlagDynamic != 0 {
		// Dynamic traffic in unlearned slots is the fabric's normal
		// on-demand path; a learned *static* slot in the dynamic segment
		// is a TDMA position violation.
		if _, static := d.owner[id]; static {
			if d.alerted[id]&frAlertSegment == 0 {
				d.alerted[id] |= frAlertSegment
				dst = append(dst, alertFor(rec.At, d.Name(), k,
					fmt.Sprintf("static slot %d transmitted in dynamic segment by %q", id, rec.Frame.Sender)))
			}
		}
		return dst
	}
	own, known := d.owner[id]
	switch {
	case !known:
		if d.alerted[id]&frAlertUnknown == 0 {
			d.alerted[id] |= frAlertUnknown
			dst = append(dst, alertFor(rec.At, d.Name(), k,
				fmt.Sprintf("static frame in unassigned slot %d from %q", id, rec.Frame.Sender)))
		}
	case own != "" && rec.Frame.Sender != own:
		if d.alerted[id]&frAlertOwner == 0 {
			d.alerted[id] |= frAlertOwner
			dst = append(dst, alertFor(rec.At, d.Name(), k,
				fmt.Sprintf("slot %d owned by %q, frame from %q", id, own, rec.Frame.Sender)))
		}
	default:
		// Conforming frame from the owner: close any ownership episode.
		d.alerted[id] &^= frAlertOwner
	}
	c := int64(rec.Frame.Aux)
	if last, seen := d.lastCycle[id]; seen && c < last {
		dst = append(dst, alertFor(rec.At, d.Name(), k,
			fmt.Sprintf("cycle counter regressed: %d after %d in slot %d", c, last, id)))
	}
	d.lastCycle[id] = c
	return dst
}

// LINScheduleDetector learns the master's schedule table from clean
// traffic — the set of scheduled identifiers and which identifier may
// follow which — and alerts on frames outside it: unscheduled IDs, and
// scheduled IDs appearing out of schedule position (the signature of a
// sporadic injection timed to dodge the interval detector).
type LINScheduleDetector struct {
	ids     map[uint32]bool
	succ    map[uint64]bool // prev<<32|cur pairs seen in training
	trained bool

	last    uint32
	hasLast bool
	alerted map[uint32]bool // unscheduled-ID episode dedup
}

// NewLINScheduleDetector creates an untrained detector.
func NewLINScheduleDetector() *LINScheduleDetector {
	return &LINScheduleDetector{
		ids:     make(map[uint32]bool),
		succ:    make(map[uint64]bool),
		alerted: make(map[uint32]bool),
	}
}

// Name implements Detector.
func (d *LINScheduleDetector) Name() string { return "lin-schedule" }

// Medium implements MediumDetector.
func (d *LINScheduleDetector) Medium() netif.Kind { return netif.LIN }

// Reset implements Detector.
func (d *LINScheduleDetector) Reset() {
	clear(d.ids)
	clear(d.succ)
	clear(d.alerted)
	d.last, d.hasLast, d.trained = 0, false, false
}

// Train implements Detector.
func (d *LINScheduleDetector) Train(trace *netif.Trace) {
	d.Reset()
	var prev uint32
	hasPrev := false
	for i := range trace.Records {
		r := &trace.Records[i]
		if r.Frame.Medium != netif.LIN || r.Corrupted {
			continue
		}
		id := r.Frame.ID
		d.ids[id] = true
		if hasPrev {
			d.succ[uint64(prev)<<32|uint64(id)] = true
		}
		prev, hasPrev = id, true
		d.trained = true
	}
}

// Observe implements Detector. The schedule pointer only advances on
// conforming frames, so one injected frame raises one alert instead of
// also implicating the legitimate frame that follows it.
func (d *LINScheduleDetector) Observe(dst []Alert, rec netif.Record) []Alert {
	if rec.Frame.Medium != netif.LIN || rec.Corrupted || !d.trained {
		return dst
	}
	id := rec.Frame.ID
	k := rec.Frame.Key()
	if !d.ids[id] {
		if d.alerted[id] {
			return dst
		}
		d.alerted[id] = true
		return append(dst, alertFor(rec.At, d.Name(), k,
			fmt.Sprintf("unscheduled frame id %#x", id)))
	}
	if d.hasLast && !d.succ[uint64(d.last)<<32|uint64(id)] {
		return append(dst, alertFor(rec.At, d.Name(), k,
			fmt.Sprintf("schedule deviation: id %#x after %#x", id, d.last)))
	}
	d.last, d.hasLast = id, true
	return dst
}

// ethBindKey binds a source MAC to an identifier (EtherType).
type ethBindKey struct {
	src netif.HWAddr
	id  uint32
}

// ethVLANKey binds an identifier to a VLAN.
type ethVLANKey struct {
	id   uint32
	vlan uint32
}

// EthernetAddrDetector learns the population of source MACs, each
// MAC's identifier bindings and each identifier's VLANs from clean
// traffic, then alerts on unknown source addresses (a new or spoofed
// station), MAC-to-identifier binding drift (a known station sending
// another station's traffic class) and VLAN anomalies.
type EthernetAddrDetector struct {
	srcs    map[netif.HWAddr]bool
	bind    map[ethBindKey]bool
	vlans   map[ethVLANKey]bool
	trained bool

	srcAlerted  map[netif.HWAddr]bool
	bindAlerted map[ethBindKey]bool
	vlanAlerted map[ethVLANKey]bool
}

// NewEthernetAddrDetector creates an untrained detector.
func NewEthernetAddrDetector() *EthernetAddrDetector {
	return &EthernetAddrDetector{
		srcs:        make(map[netif.HWAddr]bool),
		bind:        make(map[ethBindKey]bool),
		vlans:       make(map[ethVLANKey]bool),
		srcAlerted:  make(map[netif.HWAddr]bool),
		bindAlerted: make(map[ethBindKey]bool),
		vlanAlerted: make(map[ethVLANKey]bool),
	}
}

// Name implements Detector.
func (d *EthernetAddrDetector) Name() string { return "eth-addr" }

// Medium implements MediumDetector.
func (d *EthernetAddrDetector) Medium() netif.Kind { return netif.Ethernet }

// Reset implements Detector.
func (d *EthernetAddrDetector) Reset() {
	clear(d.srcs)
	clear(d.bind)
	clear(d.vlans)
	clear(d.srcAlerted)
	clear(d.bindAlerted)
	clear(d.vlanAlerted)
	d.trained = false
}

// Train implements Detector.
func (d *EthernetAddrDetector) Train(trace *netif.Trace) {
	d.Reset()
	for i := range trace.Records {
		r := &trace.Records[i]
		if r.Frame.Medium != netif.Ethernet || r.Corrupted {
			continue
		}
		d.srcs[r.Frame.Src] = true
		d.bind[ethBindKey{r.Frame.Src, r.Frame.ID}] = true
		d.vlans[ethVLANKey{r.Frame.ID, r.Frame.Aux}] = true
		d.trained = true
	}
}

func macString(a netif.HWAddr) string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", a[0], a[1], a[2], a[3], a[4], a[5])
}

// Observe implements Detector.
func (d *EthernetAddrDetector) Observe(dst []Alert, rec netif.Record) []Alert {
	if rec.Frame.Medium != netif.Ethernet || rec.Corrupted || !d.trained {
		return dst
	}
	k := rec.Frame.Key()
	src := rec.Frame.Src
	if !d.srcs[src] {
		// The station itself is the anomaly; its traffic bindings are
		// noise on top, so they are not separately alerted.
		if d.srcAlerted[src] {
			return dst
		}
		d.srcAlerted[src] = true
		return append(dst, alertFor(rec.At, d.Name(), k,
			fmt.Sprintf("unknown source MAC %s", macString(src))))
	}
	bk := ethBindKey{src, rec.Frame.ID}
	if !d.bind[bk] && !d.bindAlerted[bk] {
		d.bindAlerted[bk] = true
		dst = append(dst, alertFor(rec.At, d.Name(), k,
			fmt.Sprintf("MAC binding drift: %s now sends id %#x", macString(src), rec.Frame.ID)))
	}
	vk := ethVLANKey{rec.Frame.ID, rec.Frame.Aux}
	if !d.vlans[vk] && !d.vlanAlerted[vk] {
		d.vlanAlerted[vk] = true
		dst = append(dst, alertFor(rec.At, d.Name(), k,
			fmt.Sprintf("VLAN anomaly: id %#x on VLAN %d", rec.Frame.ID, rec.Frame.Aux)))
	}
	return dst
}

// SOMEIPDetector watches SOME/IP service behaviour on the Ethernet
// wire through the zero-copy header peek: requests to services or
// methods outside the learned interface, notifications for eventgroups
// without an observed subscription, and subscription-rate floods. It
// learns the service interface and the baseline subscription set from
// clean traffic and keeps tracking subscribe/ack exchanges live, so a
// legitimately renewed subscription never alerts.
type SOMEIPDetector struct {
	// EtherType selects the frames to decode (default EtherTypeSOMEIP).
	EtherType uint32
	// SubWindow and MaxSubsPerWindow bound the subscription rate; more
	// than MaxSubsPerWindow subscribes inside one window alerts once.
	SubWindow        sim.Duration
	MaxSubsPerWindow int

	methods map[uint32]bool // svc<<16|method from trained requests
	subs    map[uint32]bool // svc<<16|eventgroup with an observed subscription
	trained bool

	winStart     sim.Time
	subCount     int
	floodAlerted bool

	methodAlerted map[uint32]bool
	notifyAlerted map[uint32]bool
}

// NewSOMEIPDetector creates an untrained detector with a 1s
// subscription window capped at 10 subscribes.
func NewSOMEIPDetector() *SOMEIPDetector {
	d := &SOMEIPDetector{
		methods:       make(map[uint32]bool),
		subs:          make(map[uint32]bool),
		methodAlerted: make(map[uint32]bool),
		notifyAlerted: make(map[uint32]bool),
	}
	d.Reset()
	return d
}

// Reset implements Detector.
func (d *SOMEIPDetector) Reset() {
	d.EtherType, d.SubWindow, d.MaxSubsPerWindow = someip.EtherTypeSOMEIP, sim.Second, 10
	d.resetModel()
}

// resetModel forgets the learned interface and the live episode state,
// keeping the tunables.
func (d *SOMEIPDetector) resetModel() {
	clear(d.methods)
	clear(d.subs)
	clear(d.methodAlerted)
	clear(d.notifyAlerted)
	d.trained = false
	d.winStart, d.subCount, d.floodAlerted = 0, 0, false
}

// Name implements Detector.
func (d *SOMEIPDetector) Name() string { return "someip" }

// Medium implements MediumDetector.
func (d *SOMEIPDetector) Medium() netif.Kind { return netif.Ethernet }

func svcKey(h someip.Header) uint32 { return uint32(h.Service)<<16 | uint32(h.Method) }

// Train implements Detector.
func (d *SOMEIPDetector) Train(trace *netif.Trace) {
	d.resetModel()
	for i := range trace.Records {
		r := &trace.Records[i]
		if r.Frame.Medium != netif.Ethernet || r.Corrupted || r.Frame.ID != d.EtherType {
			continue
		}
		h, ok := someip.PeekHeader(r.Frame.Payload)
		if !ok {
			continue
		}
		d.trained = true
		switch h.Type {
		case someip.TypeRequest:
			d.methods[svcKey(h)] = true
		case someip.TypeSubscribe, someip.TypeSubscribeAck:
			d.subs[svcKey(h)] = true
		}
	}
}

// Observe implements Detector.
func (d *SOMEIPDetector) Observe(dst []Alert, rec netif.Record) []Alert {
	if rec.Frame.Medium != netif.Ethernet || rec.Corrupted ||
		rec.Frame.ID != d.EtherType || !d.trained {
		return dst
	}
	k := rec.Frame.Key()
	h, ok := someip.PeekHeader(rec.Frame.Payload)
	if !ok {
		return append(dst, alertFor(rec.At, d.Name(), k, "malformed SOME/IP message"))
	}
	key := svcKey(h)
	switch h.Type {
	case someip.TypeRequest:
		if !d.methods[key] && !d.methodAlerted[key] {
			d.methodAlerted[key] = true
			return append(dst, alertFor(rec.At, d.Name(), k,
				fmt.Sprintf("unknown service/method %#x/%#x requested", h.Service, h.Method)))
		}
	case someip.TypeSubscribe:
		if rec.At-d.winStart >= d.SubWindow {
			d.winStart, d.subCount, d.floodAlerted = rec.At, 0, false
		}
		d.subCount++
		d.subs[key] = true
		if d.subCount > d.MaxSubsPerWindow && !d.floodAlerted {
			d.floodAlerted = true
			return append(dst, alertFor(rec.At, d.Name(), k,
				fmt.Sprintf("subscription flood: %d subscribes in %v", d.subCount, d.SubWindow)))
		}
	case someip.TypeSubscribeAck:
		d.subs[key] = true
	case someip.TypeNotification:
		if !d.subs[key] && !d.notifyAlerted[key] {
			d.notifyAlerted[key] = true
			return append(dst, alertFor(rec.At, d.Name(), k,
				fmt.Sprintf("unsubscribed notification for service %#x eventgroup %#x", h.Service, h.Method)))
		}
	}
	return dst
}
