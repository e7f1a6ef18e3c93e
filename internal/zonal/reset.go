package zonal

import "autosec/internal/gateway"

// Pooled-vehicle lifecycle support. MarkBaseline seals the fabric's
// post-construction topology (zones, leaf domains, logical rules,
// observers); ResetToBaseline rewinds to that snapshot: scenario zones,
// domains, rules and observers are dropped, every zone gateway resets to
// its own baseline (lifting quarantines and zeroing counters), and the
// compiled per-zone rule shards are recompiled, into the storage each zone
// already owns, from the baseline logical rule set so a reset fabric
// routes exactly like a freshly built one. The fabric never writes the
// logical rules themselves: only compiled shards carry counters.

// fabBaseline is the sealed post-construction state of a Fabric.
type fabBaseline struct {
	sealed        bool
	zones         int
	domains       int             // len(domainOrder)
	rules         []*gateway.Rule // the logical rules, copied
	observers     int
	defaultAction gateway.Action
}

// MarkBaseline records the fabric's current topology as the reset target.
// It also seals every zone gateway's baseline.
func (f *Fabric) MarkBaseline() {
	f.base = fabBaseline{
		sealed:        true,
		zones:         len(f.zones),
		domains:       len(f.domainOrder),
		rules:         append([]*gateway.Rule(nil), f.rules...),
		observers:     len(f.observers),
		defaultAction: f.defaultAction,
	}
	for _, z := range f.zones {
		z.baseLocals = len(z.locals)
		z.GW.MarkBaseline()
	}
}

// ResetToBaseline rewinds the fabric to its MarkBaseline snapshot. The
// backbone medium must be reset separately (core.Vehicle.Reset does so),
// since the fabric does not own it.
func (f *Fabric) ResetToBaseline() {
	if !f.base.sealed {
		panic("zonal: ResetToBaseline before MarkBaseline")
	}
	for i := f.base.domains; i < len(f.domainOrder); i++ {
		delete(f.domainZone, f.domainOrder[i])
		f.domainOrder[i] = ""
	}
	f.domainOrder = f.domainOrder[:f.base.domains]
	for i := f.base.zones; i < len(f.zones); i++ {
		delete(f.byName, f.zones[i].Name)
		f.zones[i] = nil
	}
	f.zones = f.zones[:f.base.zones]
	for _, z := range f.zones {
		for i := z.baseLocals; i < len(z.locals); i++ {
			z.locals[i] = ""
		}
		z.locals = z.locals[:z.baseLocals]
		z.GW.ResetToBaseline()
	}
	f.defaultAction = f.base.defaultAction
	for _, z := range f.zones {
		z.GW.DefaultAction = f.defaultAction
	}
	for i := f.base.observers; i < len(f.observers); i++ {
		f.observers[i] = nil
	}
	f.observers = f.observers[:f.base.observers]
	f.BackboneFrames.Value = 0
	f.BackboneDeliveries.Value = 0
	for _, z := range f.zones {
		z.bbDeliveries.Value = 0
	}
	for _, bn := range f.bb {
		bn.port.frames.Value = 0
	}
	// SetRules recompiles every zone's shards in place.
	f.SetRules(f.base.rules)
}
