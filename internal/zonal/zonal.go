// Package zonal builds zonal E/E topologies over the netif fabric:
// several gateway.Gateway instances act as zone controllers, each owning
// the routing state for its local CAN/LIN/FlexRay/Ethernet domains, and
// all of them bridge over one Ethernet backbone using the DoIP-style
// netif tunnel. This is the paper's Secure Gateway layer scaled past one
// central box — the zonal architecture modern vehicles use so the wire
// harness (and the routing table) shards by physical zone.
//
// Callers configure the fabric with *logical* rules written exactly like
// central-gateway rules (source domain, medium selector, identifier
// range, destination domains). The fabric compiles them into per-zone
// shards: the zone owning the source domain applies the rule (and its
// rate limit) on egress and forwards cross-zone traffic into the
// backbone tunnel; zones owning destination domains install matching
// ingress rules that decapsulate and deliver locally, and never forward
// backbone traffic back to the backbone, so flooding cannot loop.
//
// Sharding semantics, relative to one central gateway:
//
//   - First-match order is preserved: every zone's compiled rule set
//     lists shards in logical-rule order, and a rule whose destinations
//     are unreachable from a zone still occupies its slot (it matches and
//     forwards nowhere) rather than letting a later rule fire.
//   - Rate limits are enforced at the source zone only; each zone holds
//     its own token bucket, so a From: "*" rule's budget is per-zone
//     rather than global (the cost of sharding the limiter state).
//   - Ingress matching is by (medium, identifier): once a frame is on
//     the backbone its original source domain is not re-checked.
//
// The steady-state inter-zone forward path allocates nothing: egress
// encapsulation and ingress decapsulation reuse the per-domain scratch
// buffers every gateway already carries (see TestInterZoneSteadyStateAllocs).
package zonal

import (
	"errors"
	"fmt"

	"autosec/internal/gateway"
	"autosec/internal/netif"
	"autosec/internal/obs"
	"autosec/internal/sim"
)

// BackboneDomain is the reserved domain name under which every zone
// controller attaches to the Ethernet backbone.
const BackboneDomain = "backbone"

// noneDomain is an unattachable destination used when a compiled rule
// must keep its first-match slot in a zone but has no reachable
// destination there: the rule matches (ending the search, as it would at
// a central gateway) and forwards nowhere.
const noneDomain = "\x00none"

// Errors.
var (
	ErrDupZone      = errors.New("zonal: zone already exists")
	ErrDupDomain    = errors.New("zonal: domain already owned by a zone")
	ErrUnknownZone  = errors.New("zonal: unknown zone")
	ErrUnknown      = errors.New("zonal: unknown domain")
	ErrReservedName = errors.New("zonal: reserved name")
)

// Zone is one zone controller: a gateway owning the backbone uplink plus
// its local domains.
type Zone struct {
	Name string
	// GW is the zone's gateway. Callers may tune Latency or observe
	// counters directly; rules are managed by the fabric.
	GW *gateway.Gateway

	fab    *Fabric
	locals []string // local domain names in attach order

	// k is the kernel the zone runs on: the shared fabric kernel, or the
	// zone's own group member in a partitioned fabric. member is its
	// kernel-group index (0 when shared).
	k      *sim.Kernel
	member int

	// bbDeliveries counts backbone-ingress frames this zone accepted and
	// delivered locally. Partitioned fabrics count per zone (each zone's
	// kernel owns its counter); shared fabrics use Fabric.BackboneDeliveries.
	bbDeliveries sim.Counter

	// quarantineFn is the prebound cross-kernel containment action
	// RequestZoneQuarantine sends between zones of a partitioned fabric.
	quarantineFn func()

	// baseLocals is the sealed local-domain count; see Fabric.MarkBaseline.
	baseLocals int
}

// ObserveFunc receives every per-zone gateway verdict, tagged with the
// zone that produced it. The *netif.Frame is only valid for the duration
// of the callback.
type ObserveFunc func(at sim.Time, zone, from string, f *netif.Frame, verdict string)

// Fabric is the zonal topology: the backbone medium, the zones bridged
// over it, the leaf-domain directory and the logical rule set the
// per-zone shards compile from.
type Fabric struct {
	kernel   *sim.Kernel
	backbone netif.Medium

	// Partitioned-fabric state (nil/zero on shared-kernel fabrics): the
	// conservative kernel group, the modelled backbone switch parameters,
	// and one backboneNet per zone (index = kernel-group member).
	group   *sim.KernelGroup
	hop     sim.Duration
	linkBps int64
	bb      []*backboneNet

	zones  []*Zone
	byName map[string]*Zone
	// domainZone maps each leaf domain to its owning zone; domainOrder
	// lists leaf domains in attach order (determinism: compilation and
	// reports iterate this, never the map).
	domainZone  map[string]*Zone
	domainOrder []string

	rules         []*gateway.Rule // logical rules, central-gateway style
	defaultAction gateway.Action

	observers []ObserveFunc

	// BackboneFrames counts every frame the backbone carries (tunnel
	// frames and native Ethernet alike) — the backbone-load metric.
	BackboneFrames sim.Counter
	// BackboneDeliveries counts backbone-ingress frames a zone accepted
	// and delivered locally. With broadcast flooding every inter-zone
	// frame reaches all other zones, so this scales as (zones-1) per
	// forwarded frame — the flooding cost E17 measures.
	BackboneDeliveries sim.Counter

	// base is the post-construction snapshot recorded by MarkBaseline for
	// pooled reuse; see ResetToBaseline.
	base fabBaseline

	// inNames interns the "<rule>@in" ingress-shard names across
	// recompiles. Pooled vehicles re-install the same rule names every
	// cycle, so after the first compile the concatenation allocates
	// nothing. Content-addressed; survives ResetToBaseline.
	inNames map[string]string
}

// inName returns the interned ingress-shard name for a logical rule name.
func (f *Fabric) inName(rule string) string {
	if s, ok := f.inNames[rule]; ok {
		return s
	}
	if f.inNames == nil {
		f.inNames = make(map[string]string)
	}
	s := rule + "@in"
	f.inNames[rule] = s
	return s
}

// New creates a fabric bridged over the given Ethernet backbone medium.
func New(k *sim.Kernel, backbone netif.Medium) *Fabric {
	f := &Fabric{
		kernel:     k,
		backbone:   backbone,
		byName:     make(map[string]*Zone),
		domainZone: make(map[string]*Zone),
	}
	backbone.Tap(func(at sim.Time, fr *netif.Frame, corrupted bool) {
		if !corrupted {
			f.BackboneFrames.Inc()
		}
	})
	return f
}

// AddZone creates a zone controller and attaches it to the backbone.
func (f *Fabric) AddZone(name string) (*Zone, error) {
	if name == BackboneDomain || name == "" {
		return nil, fmt.Errorf("%w: %q", ErrReservedName, name)
	}
	if _, dup := f.byName[name]; dup {
		return nil, fmt.Errorf("%w: %s", ErrDupZone, name)
	}
	z := &Zone{Name: name, fab: f, k: f.kernel}
	uplink := f.backbone
	if f.group != nil {
		z.member = len(f.zones)
		z.k = f.group.Kernel(z.member)
		bn := &backboneNet{fab: f, member: z.member}
		f.bb = append(f.bb, bn)
		uplink = bn
		z.quarantineFn = func() { z.GW.Quarantine(BackboneDomain) }
	}
	z.GW = gateway.New(z.k, name)
	z.GW.DefaultAction = f.defaultAction
	if err := z.GW.AttachDomain(BackboneDomain, uplink); err != nil {
		return nil, err
	}
	// Every zone counts its own backbone ingress (only this zone's kernel
	// writes the counter, so partitioned fabrics never contend on a shared
	// word, and per-zone observability probes have a value to read).
	// Shared-kernel fabrics additionally keep the fabric total live, which
	// experiment code reads mid-run.
	shared := f.group == nil
	z.GW.Observe(func(at sim.Time, from string, fr *netif.Frame, verdict string) {
		if from == BackboneDomain && len(verdict) >= 5 && verdict[:5] == "allow" {
			z.bbDeliveries.Inc()
			if shared {
				f.BackboneDeliveries.Inc()
			}
		}
		for _, fn := range f.observers {
			fn(at, z.Name, from, fr, verdict)
		}
	})
	f.zones = append(f.zones, z)
	f.byName[name] = z
	f.recompile()
	return z, nil
}

// AttachDomain binds a local domain to the zone. Domain names are global
// across the fabric: logical rules reference them exactly as they would
// reference domains of a central gateway.
func (z *Zone) AttachDomain(name string, m netif.Medium) error {
	if name == BackboneDomain || name == noneDomain || name == "" {
		return fmt.Errorf("%w: %q", ErrReservedName, name)
	}
	if _, dup := z.fab.domainZone[name]; dup {
		return fmt.Errorf("%w: %s", ErrDupDomain, name)
	}
	if err := z.GW.AttachDomain(name, m); err != nil {
		return err
	}
	z.locals = append(z.locals, name)
	z.fab.domainZone[name] = z
	z.fab.domainOrder = append(z.fab.domainOrder, name)
	z.fab.recompile()
	return nil
}

// Locals returns the zone's local domain names in attach order.
func (z *Zone) Locals() []string { return append([]string(nil), z.locals...) }

// Zones returns the zones in creation order.
func (f *Fabric) Zones() []*Zone { return f.zones }

// ZoneByName looks a zone up.
func (f *Fabric) ZoneByName(name string) (*Zone, bool) {
	z, ok := f.byName[name]
	return z, ok
}

// ZoneOf returns the zone owning a leaf domain.
func (f *Fabric) ZoneOf(domain string) (*Zone, bool) {
	z, ok := f.domainZone[domain]
	return z, ok
}

// Domains returns every leaf domain in attach order.
func (f *Fabric) Domains() []string { return append([]string(nil), f.domainOrder...) }

// AddRule appends a logical rule and recompiles the per-zone shards.
func (f *Fabric) AddRule(r *gateway.Rule) {
	f.rules = append(f.rules, r)
	f.recompile()
}

// SetRules replaces the logical rule set — the in-field update primitive.
// Compiled limiter state resets: new policy, fresh buckets.
func (f *Fabric) SetRules(rs []*gateway.Rule) {
	f.rules = rs
	f.recompile()
}

// SetDefaultAction sets the verdict for frames no rule matches, on every
// zone. Deny is the secure default; Allow reproduces the permissive
// "no gateway" baseline across zone boundaries (unmatched frames flood to
// the backbone and every remote zone delivers them locally).
func (f *Fabric) SetDefaultAction(a gateway.Action) {
	f.defaultAction = a
	for _, z := range f.zones {
		z.GW.DefaultAction = a
	}
}

// QuarantineZone isolates a whole zone: its backbone uplink drops both
// ingress and egress, so nothing crosses the zone boundary while local
// traffic inside the zone keeps flowing — the zonal containment reflex.
func (f *Fabric) QuarantineZone(name string) error {
	z, ok := f.byName[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownZone, name)
	}
	return z.GW.Quarantine(BackboneDomain)
}

// ReleaseZone lifts a zone quarantine.
func (f *Fabric) ReleaseZone(name string) error {
	z, ok := f.byName[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownZone, name)
	}
	return z.GW.Release(BackboneDomain)
}

// ZoneQuarantined reports whether a zone is isolated from the backbone.
func (f *Fabric) ZoneQuarantined(name string) bool {
	z, ok := f.byName[name]
	return ok && z.GW.Quarantined(BackboneDomain)
}

// QuarantineZoneOf isolates the zone owning the given leaf domain.
func (f *Fabric) QuarantineZoneOf(domain string) error {
	z, ok := f.domainZone[domain]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknown, domain)
	}
	return f.QuarantineZone(z.Name)
}

// QuarantineDomain isolates one leaf domain at its owning zone (the
// finer-grained containment action: the rest of the zone keeps its
// backbone connectivity).
func (f *Fabric) QuarantineDomain(domain string) error {
	z, ok := f.domainZone[domain]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknown, domain)
	}
	return z.GW.Quarantine(domain)
}

// ReleaseDomain lifts a leaf-domain quarantine.
func (f *Fabric) ReleaseDomain(domain string) error {
	z, ok := f.domainZone[domain]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknown, domain)
	}
	return z.GW.Release(domain)
}

// Observe registers a fabric-wide verdict observer (feeds audit logs and
// the E17 measurements). Fires for every zone gateway, tagged with the
// zone name.
func (f *Fabric) Observe(fn ObserveFunc) { f.observers = append(f.observers, fn) }

// Instrument attaches every zone gateway and the fabric counters to the
// observability layer. Zone metrics register as "zone-<name>/..." so
// several gateways share one registry without key collisions; fabric
// totals register under "zonal/". On a partitioned fabric every zone's
// gateway records into tr from its own kernel; the kernel group
// dispatches its members one after another, so the ring holds them in
// dispatch order, window by window. Registry counters are only written
// by their owning zone's kernel and must only be read between runs.
func (f *Fabric) Instrument(tr *obs.Tracer, reg *obs.Registry) {
	for _, z := range f.zones {
		z.GW.InstrumentAs(tr, reg, "zone-"+z.Name)
		if reg != nil {
			z := z
			reg.Probe("zone-"+z.Name+"/backbone_deliveries", func() float64 { return float64(z.bbDeliveries.Value) })
		}
	}
	if reg != nil {
		reg.Probe("zonal/backbone_frames", func() float64 { return float64(f.BackboneFramesTotal()) })
		reg.Probe("zonal/backbone_deliveries", func() float64 { return float64(f.BackboneDeliveriesTotal()) })
	}
}

// recompile rebuilds every zone's compiled rule shard from the logical
// rule set. Called on any topology or rule-set change; simulation-time
// hot paths never reach here.
func (f *Fabric) recompile() {
	for _, z := range f.zones {
		z.GW.SetRules(f.compileFor(z))
	}
}

// compileFor shards the logical rule set for one zone. See the package
// comment for the sharding semantics.
func (f *Fabric) compileFor(z *Zone) []*gateway.Rule {
	var out []*gateway.Rule
	for _, r := range f.rules {
		// Source-side shard: applies where the source domain lives. A
		// wildcard source expands per local domain so it can never match
		// backbone-ingress traffic with egress (loop-forming) destinations.
		var froms []string
		switch {
		case r.From == "*":
			froms = z.locals
		case f.domainZone[r.From] == z:
			froms = []string{r.From}
		}
		for _, from := range froms {
			cr := &gateway.Rule{
				Name:        r.Name,
				From:        from,
				Medium:      r.Medium,
				IDLo:        r.IDLo,
				IDHi:        r.IDHi,
				Action:      r.Action,
				RatePerSec:  r.RatePerSec,
				BurstFrames: r.BurstFrames,
			}
			if r.Action == gateway.Allow {
				cr.To = f.egressDests(z, r.To)
			}
			out = append(out, cr)
		}
		// Ingress shard: applies where destination domains may live, for
		// traffic arriving over the backbone. The zone owning a specific
		// source never installs one (its own egress handled the frame), and
		// ingress shards never list the backbone as a destination, so
		// backbone traffic cannot be re-flooded.
		srcZone := f.domainZone[r.From]
		if r.From == "*" || (srcZone != nil && srcZone != z) {
			ir := &gateway.Rule{
				Name:   f.inName(r.Name),
				From:   BackboneDomain,
				Medium: r.Medium,
				IDLo:   r.IDLo,
				IDHi:   r.IDHi,
				Action: r.Action,
			}
			if r.Action == gateway.Allow {
				ir.To = f.ingressDests(z, r.To)
			}
			out = append(out, ir)
		}
	}
	return out
}

// egressDests compiles a logical destination list for a source-side shard
// in zone z: local destinations stay, any reachable remote destination
// becomes one backbone hop, and "all other domains" (empty To) maps to
// nil — the zone gateway then fans out to all its attachments, which is
// exactly the locals plus the backbone.
func (f *Fabric) egressDests(z *Zone, to []string) []string {
	if len(to) == 0 {
		return nil
	}
	var out []string
	remote := false
	for _, d := range to {
		owner, known := f.domainZone[d]
		if !known {
			continue // central gateways ignore unknown destinations too
		}
		if owner == z {
			out = append(out, d)
		} else {
			remote = true
		}
	}
	if remote {
		out = append(out, BackboneDomain)
	}
	if len(out) == 0 {
		out = []string{noneDomain}
	}
	return out
}

// ingressDests compiles the local destination list for a backbone-ingress
// shard in zone z. Empty logical To ("all other domains") maps to nil:
// the fan-out excludes the backbone automatically because it is the
// frame's source.
func (f *Fabric) ingressDests(z *Zone, to []string) []string {
	if len(to) == 0 {
		return nil
	}
	var out []string
	for _, d := range to {
		if f.domainZone[d] == z {
			out = append(out, d)
		}
	}
	if len(out) == 0 {
		out = []string{noneDomain}
	}
	return out
}
