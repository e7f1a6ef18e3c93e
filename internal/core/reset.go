// Pooled vehicle lifecycle. Constructing a Vehicle is expensive (media,
// zone controllers, gateway wiring, SHE provisioning, audit chain); a
// fleet-scale run amortizes that cost by resetting a vehicle back to its
// post-NewVehicle state and re-seeding it, instead of rebuilding it per
// simulated vehicle. This is the kernel's event-node free-list discipline
// lifted one level up: construction wiring survives, run state does not.
package core

// vehicleBaseline captures the Config-derived live state sealed at the
// end of NewVehicle. Subsystem-internal baselines live on the subsystems
// themselves (see their MarkBaseline methods).
type vehicleBaseline struct {
	sealed  bool
	macBits int
	arch    archBaseline
}

// archBaseline snapshots the architecture inventory so scenario-time
// Install/Deprecate calls can be undone without violating the version
// monotonicity Install enforces.
type archBaseline struct {
	layers [numLayers]map[string]Implementation
	logLen int
}

// markBaselines seals every subsystem's post-construction state as the
// Reset target. Called exactly once, at the end of NewVehicle.
func (v *Vehicle) markBaselines(cfg Config) {
	for _, name := range v.domainOrder {
		switch {
		case v.Buses[name] != nil:
			v.Buses[name].MarkBaseline()
		case v.Switches[name] != nil:
			v.Switches[name].MarkBaseline()
		case v.LINClusters[name] != nil:
			v.LINClusters[name].MarkBaseline()
		case v.FlexRayClusters[name] != nil:
			v.FlexRayClusters[name].MarkBaseline()
		}
	}
	if v.BackboneSwitch != nil {
		v.BackboneSwitch.MarkBaseline()
	}
	if v.Zonal != nil {
		v.Zonal.MarkBaseline()
	} else {
		v.Gateway.MarkBaseline()
	}
	v.IDS.MarkBaseline()
	v.SHE.MarkBaseline()
	v.Audit.MarkBaseline()
	if v.Policy != nil {
		v.Policy.MarkBaseline()
	}
	v.base = vehicleBaseline{
		sealed:  true,
		macBits: cfg.MACBits,
		arch:    snapshotArch(v.Arch),
	}
}

func snapshotArch(a *Architecture) archBaseline {
	var b archBaseline
	for l := range a.layers {
		b.layers[l] = make(map[string]Implementation, len(a.layers[l]))
		for name, impl := range a.layers[l] {
			b.layers[l][name] = *impl
		}
	}
	b.logLen = len(a.UpgradeLog)
	return b
}

// restoreArch rewinds the inventory to the baseline snapshot. Direct map
// surgery (not Install) because Install's version monotonicity correctly
// refuses to re-install the same versions.
func restoreArch(a *Architecture, b archBaseline) {
	// Every inventory mutation (Install, Deprecate) appends to UpgradeLog,
	// so an unchanged log length means an untouched inventory — the pooled
	// steady state for scenarios that never exercise the upgrade paths.
	if len(a.UpgradeLog) == b.logLen {
		return
	}
	for l := range a.layers {
		for name := range a.layers[l] {
			delete(a.layers[l], name)
		}
		for name, impl := range b.layers[l] {
			cp := impl
			a.layers[l][name] = &cp
		}
	}
	for i := b.logLen; i < len(a.UpgradeLog); i++ {
		a.UpgradeLog[i] = ""
	}
	a.UpgradeLog = a.UpgradeLog[:b.logLen]
}

// Reset rewinds the vehicle to its post-NewVehicle state under a new
// seed, without reallocating any construction wiring. After Reset the
// vehicle behaves byte-identically (traces, metrics, audit verdicts) to
// a fresh NewVehicle built with the same Config but Seed=seed — the
// property the reset-equivalence harness in pool_equivalence_test.go
// enforces. Observability instrumentation (Instrument) is scenario
// state and detaches; re-instrument after Reset if needed.
func (v *Vehicle) Reset(seed uint64) {
	if !v.base.sealed {
		panic("core: Reset before NewVehicle sealed the baseline")
	}
	// Kernel first: drops every scheduled event (traffic matrices, FlexRay
	// cycles, pending transmissions) and reseeds all named streams in
	// place, so subsystem resets below see an empty timeline at t=now.
	// Per-zone-kernel builds reset the whole group (every member kernel
	// plus undelivered inter-kernel messages) and drop staged audit events.
	if v.Group != nil {
		v.Group.Reset(seed)
		for m := range v.auditStage {
			v.auditStage[m] = v.auditStage[m][:0]
			v.stageIdx[m] = 0
		}
		v.staged = 0
	} else {
		v.Kernel.Reset(seed)
	}

	// Media, in construction order.
	for _, name := range v.domainOrder {
		switch {
		case v.Buses[name] != nil:
			v.Buses[name].ResetToBaseline()
		case v.Switches[name] != nil:
			v.Switches[name].ResetToBaseline()
		case v.LINClusters[name] != nil:
			v.LINClusters[name].ResetToBaseline()
		case v.FlexRayClusters[name] != nil:
			v.FlexRayClusters[name].ResetToBaseline()
		}
	}
	if v.BackboneSwitch != nil {
		v.BackboneSwitch.ResetToBaseline()
	}

	// Gateway layer (zonal fabric resets its per-zone gateways itself).
	if v.Zonal != nil {
		v.Zonal.ResetToBaseline()
	} else {
		v.Gateway.ResetToBaseline()
	}

	// IDS gets a factory-fresh build of the configured suite, mirroring
	// NewVehicle — training state lives inside detectors, so fresh
	// detectors mean an untrained engine, same as a fresh build, and the
	// suite guarantees the same registry routing order.
	v.IDS.ResetToBaseline(v.idsSuite.Build()...)

	v.SHE.ResetToBaseline()
	v.CPU.ResetState()
	v.Keyless.ResetState()
	v.Fusion.ResetState()
	v.Audit.ResetToBaseline()
	if v.Policy != nil {
		v.Policy.ResetToBaseline()
	}
	restoreArch(v.Arch, v.base.arch)

	v.MACBits = v.base.macBits
	v.AuthFailures.Value = 0
	v.trafficStops = nil
	v.OTA = nil
}

// VehiclePool recycles vehicles of one Config across runs. The VIN is
// fixed per pool; per-vehicle identity comes from the seed passed to
// Acquire. Not safe for concurrent use — fleet drivers keep one pool per
// worker shard.
type VehiclePool struct {
	cfg  Config
	free []*Vehicle

	// Hits counts acquisitions served by reset instead of construction.
	Hits int
	// Misses counts acquisitions that had to build a new vehicle.
	Misses int
}

// NewVehiclePool creates an empty pool building vehicles from cfg.
func NewVehiclePool(cfg Config) *VehiclePool {
	return &VehiclePool{cfg: cfg}
}

// Acquire returns a vehicle reset (or freshly built) under the seed.
func (p *VehiclePool) Acquire(seed uint64) (*Vehicle, error) {
	if n := len(p.free); n > 0 {
		v := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		v.Reset(seed)
		p.Hits++
		return v, nil
	}
	cfg := p.cfg
	cfg.Seed = seed
	p.Misses++
	return NewVehicle(cfg)
}

// Release returns a vehicle to the free list for reuse.
func (p *VehiclePool) Release(v *Vehicle) {
	if v != nil {
		p.free = append(p.free, v)
	}
}
