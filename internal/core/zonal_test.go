package core

import (
	"slices"
	"testing"

	"autosec/internal/can"
	"autosec/internal/gateway"
	"autosec/internal/netif"
	"autosec/internal/secoc"
	"autosec/internal/sim"
	"autosec/internal/workload"
)

// zonalVehicle builds the canonical 4-zone test vehicle: the standard CAN
// domains shard to z0 (powertrain), z1 (chassis) and z3 (infotainment),
// and every zone carries one private domain of each medium kind
// ("z<i>-lcan", "z<i>-llin", "z<i>-lfr", "z<i>-leth").
func zonalVehicle(t *testing.T, seed uint64) *Vehicle {
	t.Helper()
	v, err := NewVehicle(Config{
		VIN:  "ZONAL-4",
		Seed: seed,
		Zonal: &ZonalConfig{
			Zones: 4,
			LocalDomains: []DomainSpec{
				{Name: "lcan", Kind: netif.CAN},
				{Name: "llin", Kind: netif.LIN},
				{Name: "lfr", Kind: netif.FlexRay},
				{Name: "leth", Kind: netif.Ethernet},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestZonalVehicleTopology(t *testing.T) {
	v := zonalVehicle(t, 1)
	if v.Gateway != nil {
		t.Fatal("zonal vehicle must not build a central gateway")
	}
	if v.Zonal == nil || v.BackboneSwitch == nil {
		t.Fatal("zonal fabric or backbone missing")
	}
	if n := len(v.Zonal.Zones()); n != 4 {
		t.Fatalf("zones = %d, want 4", n)
	}
	for domain, zone := range map[string]string{
		DomainPowertrain:   "z0",
		DomainChassis:      "z1", // (4-1)/2
		DomainInfotainment: "z3",
		"z2-lcan":          "z2",
	} {
		z, ok := v.Zonal.ZoneOf(domain)
		if !ok || z.Name != zone {
			t.Fatalf("domain %s in zone %v, want %s", domain, z, zone)
		}
	}
	// Every medium kind materialized per zone.
	if len(v.LINClusters) != 4 || len(v.FlexRayClusters) != 4 || len(v.Switches) != 4 {
		t.Fatalf("local domains missing: lin=%d fr=%d eth=%d",
			len(v.LINClusters), len(v.FlexRayClusters), len(v.Switches))
	}
	if _, err := NewVehicle(Config{VIN: "BAD", Seed: 1, Zonal: &ZonalConfig{Zones: 1}}); err == nil {
		t.Fatal("single-zone build must be rejected")
	}
}

// TestPerZoneCrossZoneDeliveryMatchesShared is an absolute oracle for the
// per-zone build's cross-kernel path: every frame infotainment sends to
// powertrain reaches a powertrain monitor at the instant the shared-switch
// build delivers it, and the backbone counts one delivery per frame sent.
// A fault that never flushes cross-kernel messages breaks fresh and
// pooled builds alike, so the reset-equivalence suites cannot see it;
// this test does.
func TestPerZoneCrossZoneDeliveryMatchesShared(t *testing.T) {
	const frames = 20
	run := func(perZone bool) (got []sim.Time, deliveries int64) {
		v := newVehicle(t, Config{Zonal: &ZonalConfig{Zones: 2, PerZoneKernels: perZone}})
		v.Zonal.SetRules([]*gateway.Rule{{Name: "info-pt", From: DomainInfotainment,
			To: []string{DomainPowertrain}, IDLo: 0x321, IDHi: 0x321, Action: gateway.Allow}})
		mon := can.NewController("pt-monitor")
		v.Buses[DomainPowertrain].Attach(mon)
		mon.OnReceive(func(at sim.Time, f *can.Frame, _ *can.Controller) {
			if f.ID == 0x321 {
				got = append(got, at)
			}
		})
		tx := can.NewController("info-ecu")
		v.Buses[DomainInfotainment].Attach(tx)
		k := v.KernelFor(DomainInfotainment)
		for i := 0; i < frames; i++ {
			k.At(sim.Time(i+1)*sim.Millisecond, func() {
				_ = tx.Send(can.Frame{ID: 0x321, Data: []byte{byte(i)}}, nil)
			})
		}
		if err := v.RunUntil((frames + 5) * sim.Millisecond); err != nil {
			t.Fatal(err)
		}
		return got, v.Zonal.BackboneDeliveriesTotal()
	}
	shared, sharedDeliveries := run(false)
	perZone, perZoneDeliveries := run(true)
	if len(shared) != frames || sharedDeliveries != frames {
		t.Fatalf("shared build delivered %d frames (%d backbone deliveries), want %d",
			len(shared), sharedDeliveries, frames)
	}
	if perZoneDeliveries != frames {
		t.Fatalf("per-zone backbone deliveries = %d, want %d", perZoneDeliveries, frames)
	}
	if !slices.Equal(perZone, shared) {
		t.Fatalf("per-zone delivery instants diverged from the shared switch:\nshared   %v\nper-zone %v", shared, perZone)
	}
}

// flowProbe counts deliveries of one cross-zone flow and tracks the last
// delivery time and worst observed latency.
type flowProbe struct {
	count    int
	last     sim.Time
	maxDelay sim.Duration
}

// TestZonalQuarantineContainment is the kill-chain scenario across zone
// boundaries: a compromised ECU in the infotainment zone (z3) floods a
// powertrain ID through the backbone; the IDS on the powertrain domain
// alerts and the auto-quarantine reflex isolates z3 at its backbone
// uplink. Cross-zone flows between the surviving zones — one per medium
// kind: CAN, LIN, FlexRay and Ethernet — must keep their end-to-end
// deadlines while everything out of z3 stops.
func TestZonalQuarantineContainment(t *testing.T) {
	v := zonalVehicle(t, 7)
	k := v.Kernel

	// Logical rules: the legacy-open hole the flood rides (infotainment
	// into powertrain, as in E16), plus one scoped cross-zone flow per
	// medium between healthy zones, plus a z3-sourced flow that must die
	// with the quarantine.
	v.Zonal.SetRules([]*gateway.Rule{
		{Name: "legacy-open", From: DomainInfotainment, To: []string{DomainPowertrain},
			Medium: netif.Only(netif.CAN), IDLo: 0x000, IDHi: 0x7FF, Action: gateway.Allow},
		{Name: "chassis-status", From: DomainChassis, To: []string{DomainPowertrain},
			Medium: netif.Only(netif.CAN), IDLo: 0x300, IDHi: 0x30F, Action: gateway.Allow},
		{Name: "z2-telemetry", From: "z2-lcan", To: []string{DomainPowertrain},
			Medium: netif.Only(netif.CAN), IDLo: 0x310, IDHi: 0x31F, Action: gateway.Allow},
		{Name: "lin-flow", From: "z1-llin", To: []string{"z0-llin"},
			Medium: netif.Only(netif.LIN), IDLo: 0x20, IDHi: 0x20, Action: gateway.Allow},
		{Name: "fr-flow", From: "z1-lfr", To: []string{"z0-lfr"},
			Medium: netif.Only(netif.FlexRay), IDLo: 5, IDHi: 5, Action: gateway.Allow},
		{Name: "eth-flow", From: "z1-leth", To: []string{"z0-leth"},
			Medium: netif.Only(netif.Ethernet), IDLo: 0x9000, IDHi: 0x9000, Action: gateway.Allow},
		{Name: "z3-feed", From: "z3-lcan", To: []string{DomainPowertrain},
			Medium: netif.Only(netif.CAN), IDLo: 0x320, IDHi: 0x32F, Action: gateway.Allow},
	})

	// FlexRay clusters need running communication cycles to carry dynamic
	// frames.
	for _, name := range []string{"z0-lfr", "z1-lfr", "z2-lfr", "z3-lfr"} {
		if err := v.FlexRayClusters[name].Start(); err != nil {
			t.Fatal(err)
		}
	}

	// IDS: trained on the powertrain matrix plus the status flows that
	// legitimately cross into the powertrain domain, then armed to
	// quarantine the infotainment zone's source domain.
	trainSpecs := append(workload.PowertrainMatrix(),
		workload.MessageSpec{ID: 0x300, Period: 20 * sim.Millisecond, Size: 4, Sender: "chassis-ecu"},
		workload.MessageSpec{ID: 0x310, Period: 20 * sim.Millisecond, Size: 4, Sender: "z2-ecu"},
		workload.MessageSpec{ID: 0x328, Period: 20 * sim.Millisecond, Size: 4, Sender: "z3-ecu"},
	)
	v.TrainIDS(workload.SyntheticTrace(trainSpecs, 10*sim.Second, 7, 0.01))
	v.ArmAutoQuarantine(DomainInfotainment)

	// Baseline powertrain traffic.
	_, stopPT := workload.StartSenders(k, v.Buses[DomainPowertrain], workload.PowertrainMatrix(), 0.01)
	defer stopPT()

	// Cross-zone flow receivers. CAN flows land on the powertrain bus;
	// LIN/FlexRay/Ethernet flows land on z0's private domains.
	probes := map[string]*flowProbe{
		"can-chassis": {}, "can-z2": {}, "can-z3": {}, "lin": {}, "fr": {}, "eth": {},
	}
	sendTimes := map[string]sim.Time{}
	record := func(name string, at sim.Time) {
		p := probes[name]
		p.count++
		p.last = at
		if d := at - sendTimes[name]; d > p.maxDelay {
			p.maxDelay = d
		}
	}
	ptRx := can.NewController("pt-monitor")
	v.Buses[DomainPowertrain].Attach(ptRx)
	ptRx.OnReceive(func(at sim.Time, f *can.Frame, _ *can.Controller) {
		switch f.ID {
		case 0x300:
			record("can-chassis", at)
		case 0x310:
			record("can-z2", at)
		case 0x328:
			record("can-z3", at)
		}
	})
	linRx, err := v.Media["z0-llin"].Open("lin-monitor")
	if err != nil {
		t.Fatal(err)
	}
	linRx.OnReceive(func(at sim.Time, f *netif.Frame) {
		if f.ID == 0x20 {
			record("lin", at)
		}
	})
	frRx, err := v.Media["z0-lfr"].Open("fr-monitor")
	if err != nil {
		t.Fatal(err)
	}
	frRx.OnReceive(func(at sim.Time, f *netif.Frame) {
		if f.ID == 5 && f.Flags&netif.FlagNull == 0 {
			record("fr", at)
		}
	})
	ethRx, err := v.Media["z0-leth"].Open("eth-monitor")
	if err != nil {
		t.Fatal(err)
	}
	ethRx.OnReceive(func(at sim.Time, f *netif.Frame) {
		if f.ID == 0x9000 {
			record("eth", at)
		}
	})

	// Cross-zone flow senders, one per medium, every 20ms.
	chassisTx := can.NewController("chassis-ecu")
	v.Buses[DomainChassis].Attach(chassisTx)
	z2Tx := can.NewController("z2-ecu")
	v.Buses["z2-lcan"].Attach(z2Tx)
	z3Tx := can.NewController("z3-ecu")
	v.Buses["z3-lcan"].Attach(z3Tx)
	linTx, err := v.Media["z1-llin"].Open("lin-ecu")
	if err != nil {
		t.Fatal(err)
	}
	frTx, err := v.Media["z1-lfr"].Open("fr-ecu")
	if err != nil {
		t.Fatal(err)
	}
	ethTx, err := v.Media["z1-leth"].Open("eth-ecu")
	if err != nil {
		t.Fatal(err)
	}
	k.Every(0, 20*sim.Millisecond, func() {
		now := k.Now()
		sendTimes["can-chassis"] = now
		_ = chassisTx.Send(can.Frame{ID: 0x300, Data: []byte{1, 2, 3, 4}}, nil)
		sendTimes["can-z2"] = now
		_ = z2Tx.Send(can.Frame{ID: 0x310, Data: []byte{5, 6, 7, 8}}, nil)
		sendTimes["can-z3"] = now
		_ = z3Tx.Send(can.Frame{ID: 0x328, Data: []byte{9, 10, 11, 12}}, nil)
		sendTimes["lin"] = now
		_ = linTx.Send(&netif.Frame{Medium: netif.LIN, ID: 0x20, Priority: 0x20, Payload: []byte{1, 2}})
		sendTimes["fr"] = now
		_ = frTx.Send(&netif.Frame{Medium: netif.FlexRay, ID: 5, Priority: 5, Payload: []byte{3, 4, 5, 6}})
		sendTimes["eth"] = now
		_ = ethTx.Send(&netif.Frame{Medium: netif.Ethernet, ID: 0x9000, Payload: []byte{7, 8, 9, 10, 11, 12, 13, 14}})
	})

	// The compromised infotainment ECU starts flooding a powertrain ID at
	// t=2s, 1 kHz — ten times the trained 0x0C0 rate.
	attacker := can.NewController("compromised-headunit")
	v.Buses[DomainInfotainment].Attach(attacker)
	k.Every(2*sim.Second, sim.Millisecond, func() {
		_ = attacker.Send(can.Frame{ID: 0x0C0, Data: []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}}, nil)
	})

	// Snapshot per-flow counts at t=3s (quarantine must be in force well
	// before) to measure the post-containment window 3s..6s.
	atQuarantineCheck := map[string]int{}
	k.At(3*sim.Second, func() {
		if !v.Zonal.ZoneQuarantined("z3") {
			t.Error("z3 not quarantined 1s after flood onset")
		}
		for name, p := range probes {
			atQuarantineCheck[name] = p.count
		}
	})

	if err := k.RunUntil(6 * sim.Second); err != nil {
		t.Fatal(err)
	}

	// Containment: nothing sourced in z3 crossed after the snapshot.
	if post := probes["can-z3"].count - atQuarantineCheck["can-z3"]; post != 0 {
		t.Fatalf("%d z3-sourced frames crossed the backbone after quarantine", post)
	}
	// Liveness: every healthy cross-zone flow keeps running on all four
	// media. 3s window at 20ms period = 150 sends; demand at least 2/3.
	for _, name := range []string{"can-chassis", "can-z2", "lin", "fr", "eth"} {
		p := probes[name]
		post := p.count - atQuarantineCheck[name]
		if post < 100 {
			t.Errorf("flow %s: only %d post-quarantine deliveries (want >= 100)", name, post)
		}
		if p.last < 5900*sim.Millisecond {
			t.Errorf("flow %s: last delivery at %v, flow stalled", name, p.last)
		}
		// End-to-end deadline: one 20ms period. FlexRay waits for its next
		// communication cycle, still well under a period.
		if p.maxDelay > 20*sim.Millisecond {
			t.Errorf("flow %s: worst end-to-end latency %v exceeds the 20ms deadline", name, p.maxDelay)
		}
	}
	// The reflex left the other zones' uplinks alone.
	for _, z := range []string{"z0", "z1", "z2"} {
		if v.Zonal.ZoneQuarantined(z) {
			t.Errorf("zone %s collaterally quarantined", z)
		}
	}
}

// A SecOC-protected channel works unchanged across a zone boundary: the
// authenticator rides the tunnel and verifies at the far zone.
func TestZonalSecOCAcrossZones(t *testing.T) {
	v := zonalVehicle(t, 3)
	v.Zonal.SetRules([]*gateway.Rule{
		{Name: "secure-cmd", From: "z1-lcan", To: []string{"z0-lcan"},
			Medium: netif.Only(netif.CAN), IDLo: 0x3C0, IDHi: 0x3C0, Action: gateway.Allow},
	})

	var key [16]byte
	copy(key[:], "zonal-secoc-key!")
	cfg := secoc.Config{DataID: 0x3C0, FreshnessBits: 8, MACBits: 24}
	s, err := secoc.NewSender(cfg, secoc.KeyMAC(key))
	if err != nil {
		t.Fatal(err)
	}
	r, err := secoc.NewReceiver(cfg, secoc.KeyMAC(key))
	if err != nil {
		t.Fatal(err)
	}

	txPort, err := v.Media["z1-lcan"].Open("cmd-sender")
	if err != nil {
		t.Fatal(err)
	}
	rxPort, err := v.Media["z0-lcan"].Open("cmd-receiver")
	if err != nil {
		t.Fatal(err)
	}
	tx := secoc.NewPortSender(txPort, s)
	rx := secoc.NewPortReceiver(rxPort, r)

	var got [][]byte
	rx.OnReceive(func(at sim.Time, f *netif.Frame) {
		got = append(got, append([]byte(nil), f.Payload...))
	})
	// A forged frame with a bogus authenticator must be rejected, a
	// protected one delivered bare.
	forger, err := v.Media["z1-lcan"].Open("forger")
	if err != nil {
		t.Fatal(err)
	}
	v.Kernel.At(sim.Millisecond, func() {
		_ = tx.Send(&netif.Frame{Medium: netif.CAN, ID: 0x3C0, Priority: 0x3C0, Payload: []byte{0x42, 0x43}})
		_ = forger.Send(&netif.Frame{Medium: netif.CAN, ID: 0x3C0, Priority: 0x3C0, Payload: []byte{0x42, 0x43, 0, 0, 0, 0}})
	})
	if err := v.Kernel.RunUntil(sim.Second); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0][0] != 0x42 || got[0][1] != 0x43 {
		t.Fatalf("verified deliveries = %v, want exactly the protected payload", got)
	}
	if r := rx.Rejected.Value; r != 1 {
		t.Fatalf("rejected = %d, want 1 (the forgery)", r)
	}
}
