package gateway

import (
	"autosec/internal/netif"
	"autosec/internal/sim"
)

// Pooled-vehicle lifecycle support. MarkBaseline snapshots the gateway's
// post-construction wiring (attached domains, installed rules, observers,
// policy knobs); ResetToBaseline rewinds to that snapshot without
// reallocating: scenario domains and rules are dropped, quarantines are
// lifted, limiter buckets and counters are zeroed, observability detaches.
// Construction wiring — the per-domain ports and their route closures —
// survives untouched, so a reset gateway routes exactly like a fresh one.

// gwBaseline is the sealed post-construction state of a Gateway.
type gwBaseline struct {
	sealed        bool
	domains       int
	rules         []*Rule // the installed rules, copied
	observers     int
	defaultAction Action
	latency       sim.Duration
}

// MarkBaseline records the gateway's current wiring as the reset target.
func (g *Gateway) MarkBaseline() {
	g.base = gwBaseline{
		sealed:        true,
		domains:       len(g.order),
		rules:         append([]*Rule(nil), g.rules...),
		observers:     len(g.observers),
		defaultAction: g.DefaultAction,
		latency:       g.Latency,
	}
}

// ResetToBaseline rewinds the gateway to its MarkBaseline snapshot.
func (g *Gateway) ResetToBaseline() {
	if !g.base.sealed {
		panic("gateway: ResetToBaseline before MarkBaseline")
	}
	for i := g.base.domains; i < len(g.order); i++ {
		delete(g.domains, g.order[i])
		g.order[i] = ""
	}
	g.order = g.order[:g.base.domains]
	for _, name := range g.order {
		d := g.domains[name]
		d.quarantined = false
		d.xlate = netif.Frame{}
		d.in = netif.Frame{}
		d.buf = d.buf[:0]
	}
	g.SetRules(g.base.rules)
	for _, r := range g.rules {
		r.Matched.Value = 0
		r.RateDrops.Value = 0
	}
	g.DefaultAction = g.base.defaultAction
	g.Latency = g.base.latency
	g.Forwarded.Value = 0
	g.Blocked.Value = 0
	g.RateLimited.Value = 0
	g.QuarDrops.Value = 0
	g.XlateDrops.Value = 0
	for i := g.base.observers; i < len(g.observers); i++ {
		g.observers[i] = nil
	}
	g.observers = g.observers[:g.base.observers]
	g.obsTr = nil
	g.obsSub = 0
}
