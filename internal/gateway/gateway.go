// Package gateway implements the paper's Secure Gateway layer: a central
// domain gateway that routes frames between in-vehicle network domains
// (infotainment, powertrain, chassis, telematics, ...), applies an ordered
// rule set with allow/deny/rate-limit actions, and can quarantine a
// compromised domain so an attack does not propagate to the others.
//
// Domains bind to any netif.Medium — CAN buses, LIN clusters, FlexRay
// channels, Ethernet VLANs — and the gateway translates frames at domain
// boundaries: a CAN frame forwarded into an Ethernet domain is tunnelled
// DoIP-style (netif.TunnelEtherType), a tunnel frame arriving from the
// Ethernet backbone is decapsulated and routed by its inner identity.
// Rules match on (medium, identifier range); a rule with the zero medium
// selector matches every medium, so the historical CAN-only configurations
// keep their exact semantics.
//
// The forward path keeps the repo's hot-path discipline: verdict strings
// are precomputed per rule, translation reuses per-domain scratch buffers,
// and with zero Latency the gateway performs no steady-state allocation
// beyond the payload clone every medium makes on Send.
package gateway

import (
	"errors"
	"fmt"

	"autosec/internal/netif"
	"autosec/internal/obs"
	"autosec/internal/sim"
)

// Action is a routing rule's verdict.
type Action int

const (
	// Deny drops the frame.
	Deny Action = iota
	// Allow forwards the frame to the rule's destination domains.
	Allow
)

func (a Action) String() string {
	if a == Allow {
		return "allow"
	}
	return "deny"
}

// Rule is one entry of the gateway's ordered rule set. The first matching
// rule decides; with no match the gateway's default policy applies.
//
// A Rule holds configuration only: the token-bucket limiter state lives in
// the gateway that installed the rule, so the same Rule value can be
// installed into several gateways (or re-installed after SetRules) without
// silently sharing limiter state. A gateway does write the Matched and
// RateDrops counters of every rule installed into it, so one Rule must
// not be installed into gateways that run concurrently, such as pooled
// vehicles on different fleet workers. A zonal fabric only reads its
// logical rules: its zone gateways run compiled copies.
type Rule struct {
	// Name labels the rule in logs and stats.
	Name string
	// From is the source domain, or "*" for any.
	From string
	// Medium selects which media the rule applies to; the zero value
	// matches every medium (the CAN-only legacy behaviour).
	Medium netif.Selector
	// IDLo..IDHi is the matched identifier range (inclusive): CAN IDs, LIN
	// frame IDs, FlexRay slots or Ethernet EtherTypes, per the medium.
	IDLo, IDHi uint32
	// To lists destination domains for Allow rules; empty means "all other
	// domains".
	To []string
	// Action is the verdict.
	Action Action
	// RatePerSec, when positive, bounds matched forwarding; excess frames
	// are dropped even if the rule allows them.
	RatePerSec float64
	// BurstFrames is the token-bucket depth (default: RatePerSec).
	BurstFrames float64

	Matched   sim.Counter
	RateDrops sim.Counter
}

// matches reports whether the rule applies to the frame from the domain.
func (r *Rule) matches(from string, f *netif.Frame) bool {
	if r.From != "*" && r.From != from {
		return false
	}
	if !r.Medium.Matches(f.Medium) {
		return false
	}
	return f.ID >= r.IDLo && f.ID <= r.IDHi
}

// ruleState is the gateway-owned mutable companion of one installed rule:
// the token-bucket limiter and the precomputed verdict strings (built once
// at install time so the per-frame notify path concatenates nothing).
type ruleState struct {
	allowV, denyV, rateV string

	tokens float64
	last   sim.Time
	inited bool
}

// admit applies the rule's rate limit at virtual time now.
func (st *ruleState) admit(now sim.Time, r *Rule) bool {
	if r.RatePerSec <= 0 {
		return true
	}
	burst := r.BurstFrames
	if burst <= 0 {
		burst = r.RatePerSec
	}
	if !st.inited {
		st.inited = true
		st.tokens = burst
		st.last = now
	}
	st.tokens += (now - st.last).Seconds() * r.RatePerSec
	if st.tokens > burst {
		st.tokens = burst
	}
	st.last = now
	if st.tokens < 1 {
		return false
	}
	st.tokens--
	return true
}

// domain is one attached IVN, bound to the gateway through a netif port.
// xlate/buf/in are per-domain scratch state so the zero-latency forward
// path translates without allocating.
type domain struct {
	name        string
	kind        netif.Kind
	port        netif.Port
	quarantined bool

	xlate netif.Frame // egress translation scratch
	buf   []byte      // egress encapsulation/padding scratch
	in    netif.Frame // ingress decapsulation scratch
}

// Gateway joins IVN domains with an ordered, updatable rule set. Rule-set
// updates at runtime are the extensibility hook: scenario E8 sweeps rule
// granularity, and the policy engine installs new rules in-field.
type Gateway struct {
	Name   string
	kernel *sim.Kernel

	domains map[string]*domain
	// order lists domain names in attach order: forward fans out over this
	// slice, not the map, so routing order (and everything downstream of
	// it — kernel dispatch order, bus arbitration, traces) is
	// deterministic.
	order []string
	// rules is the gateway's own copy of the installed rule pointers:
	// SetRules and AddRule copy into it, so the caller's slice is never
	// aliased and Reset never writes into it.
	rules []*Rule
	// states runs parallel to rules: states[i] is the limiter state and
	// verdict-string cache for rules[i], held by value and reused across
	// rule-set installs.
	states []ruleState
	// DefaultAction applies when no rule matches (Deny is the secure
	// default; a permissive gateway is the "no gateway" baseline).
	DefaultAction Action
	// Latency is the gateway's store-and-forward processing delay per
	// frame (rule evaluation, routing). 0 means instantaneous.
	Latency sim.Duration

	Forwarded   sim.Counter
	Blocked     sim.Counter
	RateLimited sim.Counter
	QuarDrops   sim.Counter
	// XlateDrops counts frames that matched an Allow rule but could not be
	// carried on a destination medium (payload too large, wrong tunnel).
	XlateDrops sim.Counter

	observers []func(at sim.Time, from string, f *netif.Frame, verdict string)

	// base is the post-construction snapshot recorded by MarkBaseline for
	// pooled reuse; see ResetToBaseline.
	base gwBaseline

	// verdictCache interns per-rule-name verdict strings across rule-set
	// installs. Pooled vehicles re-install the same scenario rule names
	// every acquire/run/release cycle, so after the first cycle SetRules
	// allocates no strings. Content-addressed by rule name, it survives
	// ResetToBaseline; names come from finite policy sets, so it stays
	// bounded.
	verdictCache map[string]verdictStrings

	// Observability (nil when off). Verdict and domain labels intern on
	// first sight and hit the tracer's label map afterwards, so the
	// per-frame emit is allocation-free once the verdict set is warm.
	obsTr  *obs.Tracer
	obsSub obs.Label // "gateway"
}

// New creates a gateway with a deny-by-default policy.
func New(k *sim.Kernel, name string) *Gateway {
	return &Gateway{Name: name, kernel: k, domains: make(map[string]*domain)}
}

// Errors.
var (
	ErrDupDomain     = errors.New("gateway: domain already attached")
	ErrUnknownDomain = errors.New("gateway: unknown domain")
)

// AttachDomain connects the gateway to a medium as the given domain name.
// The gateway joins the medium with its own port (on CAN: a controller
// named "gw-<gateway>-<domain>", preserving the historical node naming).
func (g *Gateway) AttachDomain(name string, m netif.Medium) error {
	if _, dup := g.domains[name]; dup {
		return fmt.Errorf("%w: %s", ErrDupDomain, name)
	}
	port, err := m.Open("gw-" + g.Name + "-" + name)
	if err != nil {
		return err
	}
	d := &domain{name: name, kind: m.Kind(), port: port}
	g.domains[name] = d
	g.order = append(g.order, name)
	port.OnReceive(func(at sim.Time, f *netif.Frame) {
		g.route(at, d, f)
	})
	return nil
}

// DomainKind reports the medium kind a domain is bound to.
func (g *Gateway) DomainKind(name string) (netif.Kind, bool) {
	d, ok := g.domains[name]
	if !ok {
		return 0, false
	}
	return d.kind, true
}

// verdictStrings is the per-rule-name verdict set, interned on the
// gateway so repeated rule installs reuse the same strings.
type verdictStrings struct {
	allowV, denyV, rateV string
}

// newState builds the gateway-owned state for one installed rule. Only
// the limiter state is fresh; the verdict strings intern per rule name.
func (g *Gateway) newState(r *Rule) ruleState {
	vs, ok := g.verdictCache[r.Name]
	if !ok {
		vs = verdictStrings{
			allowV: "allow:" + r.Name,
			denyV:  "deny:" + r.Name,
			rateV:  "rate:" + r.Name,
		}
		if g.verdictCache == nil {
			g.verdictCache = make(map[string]verdictStrings)
		}
		g.verdictCache[r.Name] = vs
	}
	return ruleState{allowV: vs.allowV, denyV: vs.denyV, rateV: vs.rateV}
}

// AddRule appends a rule to the ordered rule set.
func (g *Gateway) AddRule(r *Rule) {
	g.rules = append(g.rules, r)
	g.states = append(g.states, g.newState(r))
}

// SetRules replaces the entire rule set — the in-field update primitive.
// Limiter state is reset: new policy, fresh buckets. The gateway copies
// the rule pointers into storage it owns and reuses, so rs stays the
// caller's.
func (g *Gateway) SetRules(rs []*Rule) {
	old := len(g.rules)
	g.rules = append(g.rules[:0], rs...)
	if n := len(g.rules); n < old {
		clear(g.rules[n:old]) // drop the replaced rules
	}
	g.states = g.states[:0]
	for _, r := range g.rules {
		g.states = append(g.states, g.newState(r))
	}
}

// Rules returns the active rule set: the gateway's copy of the installed
// rule pointers, valid until the next SetRules, AddRule or Reset. Callers
// must not mutate entries concurrently with simulation.
func (g *Gateway) Rules() []*Rule { return g.rules }

// Quarantine isolates a domain: nothing routes in or out of it until
// Release. This is the containment action the paper assigns to the
// gateway when one IVN is compromised.
func (g *Gateway) Quarantine(name string) error {
	d, ok := g.domains[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownDomain, name)
	}
	d.quarantined = true
	return nil
}

// Release lifts a quarantine.
func (g *Gateway) Release(name string) error {
	d, ok := g.domains[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownDomain, name)
	}
	d.quarantined = false
	return nil
}

// Quarantined reports a domain's isolation state.
func (g *Gateway) Quarantined(name string) bool {
	d, ok := g.domains[name]
	return ok && d.quarantined
}

// Observe registers a verdict observer (feeds the IDS and audit logs).
// The *netif.Frame is only valid for the duration of the callback.
func (g *Gateway) Observe(fn func(at sim.Time, from string, f *netif.Frame, verdict string)) {
	g.observers = append(g.observers, fn)
}

func (g *Gateway) notify(at sim.Time, from string, f *netif.Frame, verdict string) {
	if g.obsTr != nil {
		g.obsTr.Instant(at, g.obsSub, g.obsTr.Label(verdict), g.obsTr.Label(from), int64(f.ID), 0)
	}
	for _, fn := range g.observers {
		fn(at, from, f, verdict)
	}
}

// Instrument attaches the gateway to the observability layer (either
// argument may be nil).
//
// Trace events (subsystem "gateway"): one instant per verdict, named with
// the verdict string ("allow:<rule>", "deny:<rule>", "rate:<rule>",
// "allow:default", "deny:default", "quarantined"), with Str = source
// domain and Arg1 = frame ID.
//
// Metrics: gateway/forwarded, gateway/blocked, gateway/rate_limited and
// gateway/quarantine_drops probe the existing counters; gateway/xlate_drops
// counts cross-medium translation failures.
func (g *Gateway) Instrument(tr *obs.Tracer, reg *obs.Registry) {
	g.InstrumentAs(tr, reg, "gateway")
}

// InstrumentAs is Instrument under an explicit subsystem/metric prefix, so
// several gateways (zonal topologies: one per zone) can register against
// one registry without key collisions.
func (g *Gateway) InstrumentAs(tr *obs.Tracer, reg *obs.Registry, sub string) {
	if tr != nil {
		g.obsTr = tr
		g.obsSub = tr.Label(sub)
	}
	if reg != nil {
		reg.Probe(sub+"/forwarded", func() float64 { return float64(g.Forwarded.Value) })
		reg.Probe(sub+"/blocked", func() float64 { return float64(g.Blocked.Value) })
		reg.Probe(sub+"/rate_limited", func() float64 { return float64(g.RateLimited.Value) })
		reg.Probe(sub+"/quarantine_drops", func() float64 { return float64(g.QuarDrops.Value) })
		reg.Probe(sub+"/xlate_drops", func() float64 { return float64(g.XlateDrops.Value) })
	}
}

// route applies the rule set to a frame received from a domain.
func (g *Gateway) route(at sim.Time, from *domain, f *netif.Frame) {
	// Ingress translation: a tunnel frame routes by its inner identity, so
	// a CAN frame tunnelled over the Ethernet backbone is matched by the
	// same rules as its native form — the decapsulation half of the
	// DoIP-style bridging the egress path performs.
	if netif.IsTunnel(f) {
		if err := netif.Decapsulate(&from.in, f); err == nil {
			f = &from.in
		}
	}
	if from.quarantined {
		g.QuarDrops.Inc()
		g.notify(at, from.name, f, "quarantined")
		return
	}
	for i, r := range g.rules {
		if !r.matches(from.name, f) {
			continue
		}
		st := &g.states[i]
		r.Matched.Inc()
		if r.Action == Deny {
			g.Blocked.Inc()
			g.notify(at, from.name, f, st.denyV)
			return
		}
		if !st.admit(at, r) {
			r.RateDrops.Inc()
			g.RateLimited.Inc()
			g.notify(at, from.name, f, st.rateV)
			return
		}
		g.forward(at, from, f, r.To)
		g.notify(at, from.name, f, st.allowV)
		return
	}
	if g.DefaultAction == Allow {
		g.forward(at, from, f, nil)
		g.notify(at, from.name, f, "allow:default")
		return
	}
	g.Blocked.Inc()
	g.notify(at, from.name, f, "deny:default")
}

// forward relays the frame to the destination domains (all others when
// dsts is empty), excluding the source and quarantined domains.
func (g *Gateway) forward(at sim.Time, from *domain, f *netif.Frame, dsts []string) {
	g.Forwarded.Inc()
	if len(dsts) == 0 {
		for _, name := range g.order {
			g.send(from, g.domains[name], f)
		}
		return
	}
	for _, name := range dsts {
		if d, ok := g.domains[name]; ok {
			g.send(from, d, f)
		}
	}
}

// send translates the frame for one destination domain and transmits it.
// The zero-latency path translates into the domain's scratch state and
// allocates nothing; the store-and-forward path clones per destination
// (the frame view does not survive the delay).
func (g *Gateway) send(from, d *domain, f *netif.Frame) {
	if d == from || d.quarantined {
		return
	}
	if g.Latency > 0 {
		frame := f.Clone()
		g.kernel.After(g.Latency, func() {
			var out netif.Frame
			var scratch []byte
			if err := netif.Translate(&out, &frame, d.kind, &scratch); err != nil {
				g.XlateDrops.Inc()
				return
			}
			// Best effort: bus-off or queue-full drops are the destination
			// port's problem and show up in its medium's counters.
			_ = d.port.Send(&out)
		})
		return
	}
	if err := netif.Translate(&d.xlate, f, d.kind, &d.buf); err != nil {
		g.XlateDrops.Inc()
		return
	}
	_ = d.port.Send(&d.xlate)
}
