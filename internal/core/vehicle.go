package core

import (
	"errors"
	"fmt"
	"strconv"

	"autosec/internal/audit"
	"autosec/internal/can"
	"autosec/internal/ecu"
	"autosec/internal/ethernet"
	"autosec/internal/flexray"
	"autosec/internal/gateway"
	"autosec/internal/ids"
	"autosec/internal/keyless"
	"autosec/internal/lin"
	"autosec/internal/netif"
	"autosec/internal/ota"
	"autosec/internal/policy"
	"autosec/internal/sensors"
	"autosec/internal/she"
	"autosec/internal/sim"
	"autosec/internal/workload"
	"autosec/internal/zonal"
)

// Domain names used by the standard vehicle build.
const (
	DomainPowertrain   = "powertrain"
	DomainChassis      = "chassis"
	DomainInfotainment = "infotainment"
)

// DomainSpec declares one additional IVN domain beyond the standard
// three CAN domains. Kind selects the transport medium; the domain binds
// to the central gateway through the netif fabric like any other.
type DomainSpec struct {
	Name string
	Kind netif.Kind
}

// Config parameterizes a standard vehicle build.
type Config struct {
	VIN  string
	Seed uint64
	// MACBits is the truncated-CMAC width for authenticated CAN frames
	// (0 disables authentication). Reconfigurable in-field through the
	// "crypto.mac-bits" policy directive.
	MACBits int
	// PolicyKey is the trusted policy-authority key; nil disables the
	// policy plane.
	PolicyKey []byte
	// ExtraDomains adds mixed-medium domains (Ethernet, LIN, FlexRay or
	// further CAN buses) to the build. They attach to the gateway after
	// the three standard domains, in declared order, so CAN-only builds
	// stay byte-identical to earlier versions.
	ExtraDomains []DomainSpec
	// Zonal, when set, replaces the central gateway with a zonal topology:
	// N zone controllers bridged by an Ethernet backbone, the standard
	// domains sharded across them. Vehicle.Gateway is nil in zonal mode;
	// use Vehicle.Zonal.
	Zonal *ZonalConfig
	// IDS, when set, reconfigures the detection plane: the engine taps
	// every ExtraDomains medium in addition to the powertrain, and
	// MediumAware selects the per-medium semantic detector suite. nil
	// keeps the historical default exactly — the baseline statistical
	// trio tapped into the powertrain only.
	IDS *IDSConfig
}

// IDSConfig parameterizes the vehicle's detection plane.
type IDSConfig struct {
	// MediumAware installs ids.MediumAwareSuite() (the baseline trio
	// plus the FlexRay, LIN, Ethernet and SOME/IP semantic families);
	// false keeps ids.BaselineSuite().
	MediumAware bool
}

// ZonalConfig parameterizes a zonal E/E build. The three standard CAN
// domains shard across the zones (powertrain into zone 0, chassis into
// the middle zone, infotainment into the last), ExtraDomains land in
// zone 0, and every zone additionally gets one private domain per
// LocalDomains entry, named "z<i>-<name>".
type ZonalConfig struct {
	// Zones is the number of zone controllers (at least 2).
	Zones int
	// LocalDomains replicates per zone: zone i gains a local domain
	// "z<i>-<Name>" of the given medium kind for each entry.
	LocalDomains []DomainSpec
	// PerZoneKernels runs each zone on its own event kernel, synchronized
	// conservatively at backbone crossings (sim.KernelGroup with the
	// Ethernet tunnel latency as lookahead). Vehicle.Group is non-nil,
	// Vehicle.Kernel is zone 0's member kernel, and each domain's events
	// live on its owning zone's kernel — schedule through
	// Vehicle.KernelFor. Execution is byte-deterministic, but is a
	// distinct timeline from the shared-kernel zonal build (per-zone
	// kernels draw per-member seeds).
	PerZoneKernels bool
}

// Vehicle composes the substrate packages into one car under the 4+1
// architecture. Every subsystem is reachable for scenarios and the
// experiment harness.
type Vehicle struct {
	VIN    string
	Kernel *sim.Kernel
	// Group is the per-zone kernel group of a parallel zonal build
	// (Zonal.PerZoneKernels); nil otherwise. Kernel is member 0.
	Group *sim.KernelGroup
	Arch  *Architecture

	Buses map[string]*can.Bus
	// Media holds the netif fabric view of every attached domain (the
	// three standard CAN domains plus any ExtraDomains), keyed by domain
	// name. The gateway and IDS bind through these.
	Media map[string]netif.Medium
	// Switches, LINClusters and FlexRayClusters expose the native handles
	// of non-CAN ExtraDomains so scenarios can attach hosts and nodes.
	Switches        map[string]*ethernet.Switch
	LINClusters     map[string]*lin.Cluster
	FlexRayClusters map[string]*flexray.Cluster
	// Gateway is the central gateway; nil when the vehicle is zonal.
	Gateway *gateway.Gateway
	// Zonal is the zone-controller fabric; nil on central builds.
	Zonal *zonal.Fabric
	// BackboneSwitch is the inter-zone Ethernet backbone (zonal builds).
	BackboneSwitch *ethernet.Switch
	IDS            *ids.Engine
	SHE            *she.Engine
	CPU            *ecu.CPU
	Keyless        *keyless.Car
	Policy         *policy.Engine
	OTA            *ota.Client
	Fusion         *sensors.Fusion
	// Audit is the tamper-evident security event log, sealed by the SHE.
	// Gateway denials/quarantines and IDS alerts are recorded
	// automatically; subsystems may Append their own events.
	Audit *audit.Log

	// MACBits is the live authenticated-CAN configuration.
	MACBits int

	// AuthFailures counts received authenticated frames whose MAC did not
	// verify.
	AuthFailures sim.Counter

	trafficStops []func()

	// auditStage holds per-member staged audit events of a per-zone-kernel
	// build: zone kernels dispatch whole windows one after another, so
	// appending directly would order the shared (SHE-sealed) log by
	// member rather than by time; each member stages its events and the
	// group barrier merges them in (time, member) order — see
	// mergeAuditStages. staged counts the events staged since the last
	// merge, so a barrier with nothing to merge returns at once.
	auditStage [][]stagedAudit
	stageIdx   []int
	staged     int
	// alertBuf is the scratch an IDS alert renders into before its audit
	// entry copies it out.
	alertBuf []byte

	// domainOrder records domain names in construction order so Reset
	// walks the media deterministically (never map order).
	domainOrder []string
	// base is the pooled-reuse baseline sealed at the end of NewVehicle;
	// see Reset in reset.go.
	base vehicleBaseline
}

// macKeySlot is the SHE slot holding the IVN authentication key.
const macKeySlot = she.Key1

// NewVehicle builds the standard three-domain vehicle: CAN buses for
// powertrain, chassis and infotainment joined by a central gateway with a
// deny-by-default rule set, an IDS tapped into the powertrain domain, a
// SHE-backed MCU, a PKES unit with distance bounding available, and the
// policy plane wired to reconfigure all of it.
func NewVehicle(cfg Config) (*Vehicle, error) {
	if cfg.VIN == "" {
		return nil, errors.New("core: vehicle needs a VIN")
	}
	var k *sim.Kernel
	var group *sim.KernelGroup
	if cfg.Zonal != nil && cfg.Zonal.PerZoneKernels {
		if cfg.Zonal.Zones < 2 {
			return nil, fmt.Errorf("core: zonal build needs >= 2 zones, got %d", cfg.Zonal.Zones)
		}
		group = sim.NewKernelGroup(cfg.Seed, ethernet.TunnelLookahead(backboneHopLatency, ethernet.DefaultLinkBps))
		// Materialize every member kernel up front: domain media bind to
		// their owning zone's kernel before the fabric exists.
		for i := 0; i < cfg.Zonal.Zones; i++ {
			group.Kernel(i)
		}
		k = group.Kernel(0)
	} else {
		k = sim.NewKernel(cfg.Seed)
	}
	v := &Vehicle{
		VIN:             cfg.VIN,
		Kernel:          k,
		Group:           group,
		Arch:            NewArchitecture(),
		Buses:           make(map[string]*can.Bus),
		Media:           make(map[string]netif.Medium),
		Switches:        make(map[string]*ethernet.Switch),
		LINClusters:     make(map[string]*lin.Cluster),
		FlexRayClusters: make(map[string]*flexray.Cluster),
		MACBits:         cfg.MACBits,
	}

	// Secure Networks: the IVN domains. Each standard bus lives on the
	// kernel of the zone it will shard into — the shared kernel except in
	// per-zone-kernel builds, where intra-zone bus events must never cross
	// the kernel boundary.
	for _, d := range []string{DomainPowertrain, DomainChassis, DomainInfotainment} {
		bk := k
		if group != nil {
			bk = group.Kernel(standardDomainZone(d, cfg.Zonal.Zones))
		}
		v.Buses[d] = can.NewBus(bk, d, 500_000)
		v.Media[d] = can.Netif(v.Buses[d])
		v.domainOrder = append(v.domainOrder, d)
	}
	// Mixed-medium extras build in declared order (kernel event
	// scheduling, e.g. FlexRay cycles, must be deterministic). They shard
	// into zone 0, whose kernel is v.Kernel in every build flavor.
	for _, spec := range cfg.ExtraDomains {
		if err := v.addExtraDomainOn(k, spec); err != nil {
			return nil, err
		}
	}

	// Secure Gateway. Domains attach in a fixed order (not map order) so
	// gateway fan-out, kernel dispatch and traces are seed-deterministic.
	// Standard CAN domains first — byte-compatible with CAN-only builds —
	// then extras in declared order. Zonal builds shard the same domains
	// across zone controllers instead.
	if cfg.Zonal != nil {
		if err := v.buildZonal(cfg); err != nil {
			return nil, err
		}
	} else {
		v.Gateway = gateway.New(k, "central")
		for _, name := range []string{DomainPowertrain, DomainChassis, DomainInfotainment} {
			if err := v.Gateway.AttachDomain(name, v.Media[name]); err != nil {
				return nil, err
			}
		}
		for _, spec := range cfg.ExtraDomains {
			if err := v.Gateway.AttachDomain(spec.Name, v.Media[spec.Name]); err != nil {
				return nil, err
			}
		}
	}

	// Secure Networks compensating control: the detection plane. Pooled
	// Resets return these detectors to constructor state in place, in the
	// same registry order.
	suite := ids.BaselineSuite()
	if cfg.IDS != nil && cfg.IDS.MediumAware {
		suite = ids.MediumAwareSuite()
	}
	v.IDS = ids.NewEngineFromSuite(suite)
	v.IDS.Attach(v.Media[DomainPowertrain])
	if cfg.IDS != nil {
		// Widened taps: every mixed-media extra domain feeds the engine.
		// Extras shard into zone 0 — member 0's kernel — in every build
		// flavor, so the added taps never observe across kernels.
		for _, spec := range cfg.ExtraDomains {
			v.IDS.Attach(v.Media[spec.Name])
		}
	}

	// Secure Processing: SHE engine + MCU scheduler.
	var uid she.UID
	copy(uid[:], cfg.VIN)
	v.SHE = she.NewEngine(uid)
	v.CPU = ecu.NewCPU(k, cfg.VIN+"-mcu")

	// Access Security.
	var pkesKey [16]byte
	copy(pkesKey[:], cfg.VIN+"-pkes-key------")
	v.Keyless = keyless.NewCar(pkesKey)

	// Sensor fusion (feeds Secure Interfaces plausibility checks).
	v.Fusion = sensors.NewFusion()

	// Audit log, sealed under a dedicated SHE key slot.
	var auditKey [16]byte
	copy(auditKey[:], cfg.VIN+"-audit-seal-key-")
	if err := v.SHE.ProvisionKey(she.Key10, auditKey, she.Flags{KeyUsage: true, WriteProtection: true}); err != nil {
		return nil, err
	}
	v.Audit = audit.New(func(msg []byte) ([]byte, error) {
		return v.SHE.GenerateMAC(she.Key10, msg)
	})
	switch {
	case v.Group != nil:
		// Per-zone-kernel build: each member stages its events and the
		// group barrier merges them into the shared SHE-sealed log in
		// (time, member) order.
		v.auditStage = make([][]stagedAudit, v.Group.Members())
		v.stageIdx = make([]int, v.Group.Members())
		v.Zonal.Observe(func(at sim.Time, zone, from string, f *netif.Frame, verdict string) {
			if auditableVerdict(verdict) {
				z, _ := v.Zonal.ZoneByName(zone)
				m := z.Member()
				v.auditStage[m] = append(v.auditStage[m], stagedAudit{
					at: at, src: "gateway",
					msg: verdict + " id=" + auditID(f) + " from=" + from + " zone=" + zone,
				})
				v.staged++
			}
		})
		v.Group.AtBarrier(func(limit sim.Time) { v.mergeAuditStages() })
	case v.Zonal != nil:
		v.Zonal.Observe(func(at sim.Time, zone, from string, f *netif.Frame, verdict string) {
			if auditableVerdict(verdict) {
				v.Audit.Append(at, "gateway", verdict+" id="+auditID(f)+" from="+from+" zone="+zone)
			}
		})
	default:
		v.Gateway.Observe(func(at sim.Time, from string, f *netif.Frame, verdict string) {
			// Denials and quarantine drops are security events; routine
			// allows would swamp the log.
			if auditableVerdict(verdict) {
				v.Audit.Append(at, "gateway", verdict+" id="+auditID(f)+" from="+from)
			}
		})
	}
	v.IDS.OnAlert(func(a ids.Alert) {
		v.alertBuf = a.AppendTo(v.alertBuf[:0])
		msg := string(v.alertBuf)
		// The IDS taps the powertrain domain, which shards into zone 0 —
		// member 0's kernel — so per-zone-kernel builds stage its alerts
		// there.
		if v.Group != nil {
			v.auditStage[0] = append(v.auditStage[0], stagedAudit{at: a.At, src: "ids", msg: msg})
			v.staged++
			return
		}
		v.Audit.Append(a.At, "ids", msg)
	})

	// Policy plane.
	if cfg.PolicyKey != nil {
		v.Policy = policy.NewEngine(cfg.PolicyKey)
		if err := v.registerAppliers(); err != nil {
			return nil, err
		}
	}

	// Record the build in the architecture inventory.
	gwName, gwComp := "central-gateway", any(v.Gateway)
	if v.Zonal != nil {
		gwName, gwComp = "zonal-fabric", any(v.Zonal)
	}
	installs := []struct {
		l    Layer
		name string
		comp any
	}{
		{SecureGateway, gwName, gwComp},
		{SecureNetworks, "ivn-can", v.Buses},
		{SecureNetworks, "ids", v.IDS},
		{SecureProcessing, "she", v.SHE},
		{SecureProcessing, "scheduler", v.CPU},
		{AccessSecurity, "pkes", v.Keyless},
		{SecureInterfaces, "sensor-fusion", v.Fusion},
	}
	for _, in := range installs {
		if err := v.Arch.Install(in.l, Implementation{Name: in.name, Version: 1, Component: in.comp}); err != nil {
			return nil, err
		}
	}

	// Seal the constructed state as the pooled-reuse baseline.
	v.markBaselines(cfg)
	return v, nil
}

// auditableVerdict filters gateway verdicts down to security events:
// denials, quarantine drops and rate limiting. Routine allows would swamp
// the log.
func auditableVerdict(verdict string) bool {
	return len(verdict) >= 4 && (verdict[:4] == "deny" || verdict == "quarantined" || verdict[:4] == "rate")
}

// auditID renders a frame identifier for an audit entry: three hex digits
// identify the frame without bloating log entries (full extended IDs
// truncate to their top bits).
func auditID(f *netif.Frame) string {
	idw := 3
	if f.Flags&netif.FlagExtended != 0 {
		idw = 8
	}
	return fmt.Sprintf("%0*X", idw, f.ID)[:3]
}

// buildZonal constructs the zonal topology: an Ethernet backbone switch,
// cfg.Zonal.Zones zone controllers ("z0".."z<n-1>"), the standard domains
// sharded across them, ExtraDomains in zone 0, and per-zone local domains
// from cfg.Zonal.LocalDomains. Everything attaches in a fixed order so
// the build is seed-deterministic.
func (v *Vehicle) buildZonal(cfg Config) error {
	n := cfg.Zonal.Zones
	if n < 2 {
		return fmt.Errorf("core: zonal build needs >= 2 zones, got %d", n)
	}
	if v.Group != nil {
		// Per-zone kernels: the backbone is the kernel boundary, modelled
		// with the same hop latency and link speed as the shared switch.
		v.Zonal = zonal.NewPartitioned(v.Group, backboneHopLatency, ethernet.DefaultLinkBps)
	} else {
		v.BackboneSwitch = ethernet.NewSwitch(v.Kernel, cfg.VIN+"-zonal-backbone", backboneHopLatency)
		v.Zonal = zonal.New(v.Kernel, ethernet.Netif(v.BackboneSwitch, 1))
	}
	zones := make([]*zonal.Zone, n)
	for i := range zones {
		z, err := v.Zonal.AddZone("z" + strconv.Itoa(i))
		if err != nil {
			return err
		}
		zones[i] = z
	}
	// Standard-domain sharding: powertrain fronts the first zone,
	// infotainment (the exposed domain) the last, chassis the middle — so
	// quarantining the infotainment zone never collaterally isolates the
	// safety-critical domains.
	for _, d := range []string{DomainPowertrain, DomainChassis, DomainInfotainment} {
		if err := zones[standardDomainZone(d, n)].AttachDomain(d, v.Media[d]); err != nil {
			return err
		}
	}
	for _, spec := range cfg.ExtraDomains {
		if err := zones[0].AttachDomain(spec.Name, v.Media[spec.Name]); err != nil {
			return err
		}
	}
	for i, z := range zones {
		for _, spec := range cfg.Zonal.LocalDomains {
			local := DomainSpec{Name: "z" + strconv.Itoa(i) + "-" + spec.Name, Kind: spec.Kind}
			if err := v.addExtraDomainOn(z.Kernel(), local); err != nil {
				return err
			}
			if err := z.AttachDomain(local.Name, v.Media[local.Name]); err != nil {
				return err
			}
		}
	}
	return nil
}

// addExtraDomainOn builds the native network for one ExtraDomains entry
// on the given kernel (the owning zone's kernel in per-zone-kernel
// builds) and registers its fabric view in Media.
func (v *Vehicle) addExtraDomainOn(k *sim.Kernel, spec DomainSpec) error {
	if spec.Name == "" {
		return errors.New("core: extra domain needs a name")
	}
	if _, dup := v.Media[spec.Name]; dup {
		return fmt.Errorf("core: duplicate domain %q", spec.Name)
	}
	switch spec.Kind {
	case netif.CAN:
		b := can.NewBus(k, spec.Name, 500_000)
		v.Buses[spec.Name] = b
		v.Media[spec.Name] = can.Netif(b)
	case netif.Ethernet:
		sw := ethernet.NewSwitch(k, spec.Name, 2*sim.Microsecond)
		v.Switches[spec.Name] = sw
		v.Media[spec.Name] = ethernet.Netif(sw, 1)
	case netif.LIN:
		c := lin.NewCluster(k, spec.Name, 19_200, lin.Enhanced)
		v.LINClusters[spec.Name] = c
		v.Media[spec.Name] = lin.Netif(c)
	case netif.FlexRay:
		c, err := flexray.NewCluster(k, spec.Name, flexray.DefaultConfig())
		if err != nil {
			return err
		}
		v.FlexRayClusters[spec.Name] = c
		v.Media[spec.Name] = flexray.Netif(c)
	default:
		return fmt.Errorf("core: unknown medium kind %d for domain %q", spec.Kind, spec.Name)
	}
	v.domainOrder = append(v.domainOrder, spec.Name)
	return nil
}

// registerAppliers wires the policy directive kinds into the subsystems.
func (v *Vehicle) registerAppliers() error {
	appliers := []policy.Applier{
		policy.ApplierFunc{
			K: "gateway.rule",
			V: func(d policy.Directive) error {
				_, err := parseGatewayRule(d)
				return err
			},
			Ap: func(d policy.Directive) error {
				r, err := parseGatewayRule(d)
				if err != nil {
					return err
				}
				if v.Zonal != nil {
					v.Zonal.AddRule(r)
				} else {
					v.Gateway.AddRule(r)
				}
				return nil
			},
		},
		policy.ApplierFunc{
			K: "gateway.quarantine",
			Ap: func(d policy.Directive) error {
				domain := d.Param("domain", "")
				on := d.Param("state", "on") == "on"
				if v.Zonal != nil {
					if on {
						return v.Zonal.QuarantineDomain(domain)
					}
					return v.Zonal.ReleaseDomain(domain)
				}
				if on {
					return v.Gateway.Quarantine(domain)
				}
				return v.Gateway.Release(domain)
			},
		},
		policy.ApplierFunc{
			K: "ids.detector",
			V: func(d policy.Directive) error {
				_, err := buildDetector(d)
				return err
			},
			Ap: func(d policy.Directive) error {
				det, err := buildDetector(d)
				if err != nil {
					return err
				}
				v.IDS.Remove(det.Name()) // replace-in-place semantics
				v.IDS.Add(det)
				return nil
			},
		},
		policy.ApplierFunc{
			K: "crypto.mac-bits",
			V: func(d policy.Directive) error {
				_, err := parseMACBits(d)
				return err
			},
			Ap: func(d policy.Directive) error {
				bits, err := parseMACBits(d)
				if err != nil {
					return err
				}
				v.MACBits = bits
				return nil
			},
		},
	}
	for _, a := range appliers {
		if err := v.Policy.Register(a); err != nil {
			return err
		}
	}
	return nil
}

func parseMACBits(d policy.Directive) (int, error) {
	bits, err := strconv.Atoi(d.Param("bits", ""))
	if err != nil {
		return 0, fmt.Errorf("core: mac-bits: %v", err)
	}
	if bits != 0 && (bits < 8 || bits > 64 || bits%8 != 0) {
		return 0, fmt.Errorf("core: mac-bits %d not in {0, 8..64 byte-aligned}", bits)
	}
	return bits, nil
}

func parseGatewayRule(d policy.Directive) (*gateway.Rule, error) {
	lo, err := strconv.ParseUint(d.Param("idlo", "0"), 0, 32)
	if err != nil {
		return nil, fmt.Errorf("core: gateway rule idlo: %v", err)
	}
	hi, err := strconv.ParseUint(d.Param("idhi", "0x1FFFFFFF"), 0, 32)
	if err != nil {
		return nil, fmt.Errorf("core: gateway rule idhi: %v", err)
	}
	action := gateway.Deny
	switch d.Param("action", "deny") {
	case "allow":
		action = gateway.Allow
	case "deny":
	default:
		return nil, fmt.Errorf("core: gateway rule action %q", d.Param("action", ""))
	}
	rate := 0.0
	if rs := d.Param("rate", ""); rs != "" {
		rate, err = strconv.ParseFloat(rs, 64)
		if err != nil {
			return nil, fmt.Errorf("core: gateway rule rate: %v", err)
		}
	}
	r := &gateway.Rule{
		Name:       d.Param("name", "policy-rule"),
		From:       d.Param("from", "*"),
		IDLo:       uint32(lo),
		IDHi:       uint32(hi),
		Action:     action,
		RatePerSec: rate,
	}
	if to := d.Param("to", ""); to != "" {
		r.To = []string{to}
	}
	return r, nil
}

func buildDetector(d policy.Directive) (ids.Detector, error) {
	switch name := d.Param("name", ""); name {
	case "frequency":
		return ids.NewFrequencyDetector(), nil
	case "interval":
		return ids.NewIntervalDetector(), nil
	case "entropy":
		return ids.NewEntropyDetector(), nil
	case "spec":
		return ids.NewSpecDetector(), nil
	// The per-medium semantic families route to their medium's registry
	// bucket automatically (ids.MediumDetector), so a policy push of a
	// FlexRay model never sees other media's traffic.
	case "fr-slot":
		return ids.NewFlexRaySlotDetector(), nil
	case "lin-schedule":
		return ids.NewLINScheduleDetector(), nil
	case "eth-addr":
		return ids.NewEthernetAddrDetector(), nil
	case "someip":
		return ids.NewSOMEIPDetector(), nil
	default:
		return nil, fmt.Errorf("core: unknown detector %q", name)
	}
}

// StartTraffic launches the standard workload matrices on the powertrain
// and infotainment domains.
func (v *Vehicle) StartTraffic() {
	_, stopPT := workload.StartSenders(v.KernelFor(DomainPowertrain), v.Buses[DomainPowertrain], workload.PowertrainMatrix(), 0.01)
	_, stopBody := workload.StartSenders(v.KernelFor(DomainInfotainment), v.Buses[DomainInfotainment], workload.BodyMatrix(), 0.01)
	v.trafficStops = append(v.trafficStops, stopPT, stopBody)
}

// StopTraffic halts the workload senders.
func (v *Vehicle) StopTraffic() {
	for _, fn := range v.trafficStops {
		fn()
	}
	v.trafficStops = nil
}

// TrainIDS trains the intrusion detectors on a clean reference trace.
func (v *Vehicle) TrainIDS(trace *netif.Trace) { v.IDS.Train(trace) }

// ArmAutoQuarantine wires IDS alerts on the given domain's traffic to an
// automatic gateway quarantine of a source domain — the containment
// reflex the paper assigns to the Secure Gateway layer. On a zonal build
// the reflex isolates the whole zone owning the source domain at its
// backbone uplink.
func (v *Vehicle) ArmAutoQuarantine(sourceDomain string) {
	v.IDS.OnAlert(func(a ids.Alert) {
		if v.Group != nil {
			// The alert fires on member 0's kernel (the IDS's home zone);
			// isolating another zone crosses the kernel boundary as an
			// asynchronous containment message.
			_ = v.Zonal.RequestZoneQuarantine(DomainPowertrain, sourceDomain)
			return
		}
		if v.Zonal != nil {
			_ = v.Zonal.QuarantineZoneOf(sourceDomain)
			return
		}
		_ = v.Gateway.Quarantine(sourceDomain)
	})
}

// ProvisionMACKey installs the IVN authentication key into the SHE.
func (v *Vehicle) ProvisionMACKey(key [16]byte) error {
	return v.SHE.ProvisionKey(macKeySlot, key, she.Flags{KeyUsage: true, BootProtection: true})
}

// AuthenticatedSend appends a truncated CMAC (MACBits wide) to the
// payload and sends the frame. Payload length plus MAC bytes must fit the
// 8-byte classic CAN frame.
func (v *Vehicle) AuthenticatedSend(c *can.Controller, id can.ID, payload []byte) error {
	macLen := v.MACBits / 8
	if len(payload)+macLen > 8 {
		return fmt.Errorf("core: payload %dB + MAC %dB exceeds frame", len(payload), macLen)
	}
	data := append([]byte(nil), payload...)
	if macLen > 0 {
		mac, err := v.SHE.GenerateMAC(macKeySlot, payload)
		if err != nil {
			return err
		}
		data = append(data, mac[:macLen]...)
	}
	return c.Send(can.Frame{ID: id, Data: data}, nil)
}

// VerifyAuthenticated checks a received frame's trailing MAC under the
// live MACBits configuration and returns the bare payload.
func (v *Vehicle) VerifyAuthenticated(f *can.Frame) ([]byte, error) {
	macLen := v.MACBits / 8
	if macLen == 0 {
		return f.Data, nil
	}
	if len(f.Data) < macLen {
		v.AuthFailures.Inc()
		return nil, errors.New("core: frame too short for MAC")
	}
	payload := f.Data[:len(f.Data)-macLen]
	mac := f.Data[len(f.Data)-macLen:]
	ok, err := v.SHE.VerifyMAC(macKeySlot, payload, mac, v.MACBits)
	if err != nil {
		return nil, err
	}
	if !ok {
		v.AuthFailures.Inc()
		return nil, errors.New("core: MAC verification failed")
	}
	return payload, nil
}
