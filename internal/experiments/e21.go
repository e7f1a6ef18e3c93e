package experiments

import (
	"fmt"

	"autosec/internal/core"
	"autosec/internal/ethernet"
	"autosec/internal/flexray"
	"autosec/internal/lin"
	"autosec/internal/netif"
	"autosec/internal/sim"
	"autosec/internal/someip"
)

// e21Attack labels one attack scenario and installs its events on the
// measurement vehicle. Install is called after the clean scripts, with
// every attack event at or after e21AttackStart.
type e21Attack struct {
	name    string
	install func(v *core.Vehicle, s *e21Scenario)
}

const (
	e21CaptureEnd  = 2 * sim.Second
	e21AttackStart = 4 * sim.Second
	e21RunEnd      = 6 * sim.Second
)

// e21Scenario carries the handles the clean scripts create that the
// attack installers need (victim slot, attacker stations, service MACs).
type e21Scenario struct {
	frOwnerSilent *bool          // set true when the masqueraded owner must yield its slot
	ghost         *ethernet.Host // wired but silent station for the spoofing row
	display       *ethernet.Host // known station that sources the spoofed notifications
	cameraMAC     ethernet.MAC   // SOME/IP server station
}

// E21 pits the baseline statistical detector trio (frequency, interval,
// spec) against the medium-aware registry suite on four attacks, one per
// non-CAN medium, each tuned to be statistically invisible: it preserves
// every identifier's rate, inter-arrival spacing and payload length, and
// violates only the medium's native contract (TDMA slot ownership, the
// LIN schedule table, the switch's station population, the SOME/IP
// subscription state). The baseline detectors are honestly blind — the
// injections sit at exactly half the learned period, the masquerade
// reuses the victim's own slot timing — so detection separates cleanly
// on semantics, not tuning slack.
//
// Scenario timeline (identical clean traffic in every row):
//
//	[0, 2s)  a capture vehicle records clean traffic on the three extra
//	         domains; the measurement vehicle trains on that capture
//	[0, 4s)  clean window in the measurement run (false-alert budget)
//	[4s, 6s) attack window; the attack runs to the end of the run
//
// The clean traffic deliberately includes a SOME/IP discovery burst
// (offer/find/subscribe/call) in [0, 1.2s]: bursty service-oriented
// exchanges on one EtherType are exactly what the CAN-era interval
// model cannot describe, so both suites log the same handful of
// interval false alerts there — the medium-aware suite adds detection
// without adding false alerts.
//
// The vehicle is a 2-zone per-zone-kernel build with every attack medium
// on an extra domain sharded into zone 0, so the detection plane never
// observes across kernels.
func E21MediumIDS(seed uint64) *Table {
	t := &Table{
		ID:    "E21",
		Title: "Medium-aware IDS vs statistical baseline on per-medium attacks (§5, §7)",
		Claim: "per-medium semantic models catch slot masquerade, schedule deviation, station spoofing and service misuse that rate/interval/DLC statistics provably cannot see; the registry adds them without new false alerts",
		Columns: []string{"attack", "suite", "records", "detected", "ttd (us)",
			"alerts in window", "false alerts", "first detector"},
	}
	attacks := []e21Attack{
		{name: "flexray slot masquerade", install: e21InstallFlexRayMasquerade},
		{name: "lin mid-period injection", install: e21InstallLINInjection},
		{name: "ethernet unknown station", install: e21InstallEthernetGhost},
		{name: "someip spoofed notify", install: e21InstallSOMEIPSpoof},
	}
	for _, atk := range attacks {
		for _, aware := range []bool{false, true} {
			suite := "baseline"
			if aware {
				suite = "medium-aware"
			}

			// Capture run: same build, same seed, clean scripts only.
			// The recorder taps feed the measurement vehicle's training.
			cap, capScn := e21BuildVehicle(seed, aware)
			_ = capScn
			frTr := netif.Recorder(cap.Media["frchassis"])
			linTr := netif.Recorder(cap.Media["cabin"])
			ethTr := netif.Recorder(cap.Media["telematics"])
			if err := cap.RunUntil(e21CaptureEnd); err != nil {
				panic(err)
			}
			train := &netif.Trace{}
			train.Records = append(train.Records, frTr.Records...)
			train.Records = append(train.Records, linTr.Records...)
			train.Records = append(train.Records, ethTr.Records...)

			// Measurement run: train before any traffic, then replay the
			// same clean scripts with the attack layered on top.
			v, scn := e21BuildVehicle(seed, aware)
			v.TrainIDS(train)
			atk.install(v, scn)
			if err := v.RunUntil(e21RunEnd); err != nil {
				panic(err)
			}

			inWindow, falseAlerts := 0, 0
			var firstAt sim.Time
			firstDet := "-"
			for _, a := range v.IDS.Alerts {
				if a.At < e21AttackStart {
					falseAlerts++
					continue
				}
				inWindow++
				if firstDet == "-" {
					firstAt, firstDet = a.At, a.Detector
				}
			}
			detected, ttd := "no", "-"
			if inWindow > 0 {
				detected = "yes"
				ttd = fmt.Sprintf("%.1f", (firstAt - e21AttackStart).Micros())
			}
			t.AddRow(atk.name, suite, v.IDS.Observed(), detected, ttd,
				inWindow, falseAlerts, firstDet)
		}
	}
	return t
}

// e21BuildVehicle constructs the 2-zone vehicle with one extra domain
// per non-CAN medium and installs the clean traffic scripts. The
// standard CAN domains stay silent so the table isolates the non-CAN
// story. All three extras shard into zone 0, so every scripted event
// lives on one member kernel and the timeline is worker-invariant.
func e21BuildVehicle(seed uint64, mediumAware bool) (*core.Vehicle, *e21Scenario) {
	v, err := core.NewVehicle(core.Config{
		VIN:  "E21",
		Seed: seed,
		ExtraDomains: []core.DomainSpec{
			{Name: "frchassis", Kind: netif.FlexRay},
			{Name: "cabin", Kind: netif.LIN},
			{Name: "telematics", Kind: netif.Ethernet},
		},
		Zonal: &core.ZonalConfig{Zones: 2, PerZoneKernels: true},
		IDS:   &core.IDSConfig{MediumAware: mediumAware},
	})
	if err != nil {
		panic(err)
	}
	scn := &e21Scenario{}

	// FlexRay: three owned static slots publishing every 5ms cycle, plus
	// a periodic dynamic-segment diagnostic burst. The slot-9 owner
	// yields (publishes nil) once the masquerade begins — the compromised
	// node is held in reset while the intruder speaks in its slot.
	frK := v.KernelFor("frchassis")
	fr := v.FlexRayClusters["frchassis"]
	silent := false
	scn.frOwnerSilent = &silent
	counter := func(tag byte) flexray.PublishFunc {
		return func(cycle int) []byte {
			return []byte{tag, byte(cycle >> 8), byte(cycle), 0, 0, 0, 0, tag}
		}
	}
	must(fr.AssignStatic(5, "brake-ecu", counter(0x05)))
	must(fr.AssignStatic(9, "steer-ecu", func(cycle int) []byte {
		if silent {
			return nil
		}
		return counter(0x09)(cycle)
	}))
	must(fr.AssignStatic(12, "susp-ecu", counter(0x0C)))
	frK.Every(2*sim.Millisecond, 35*sim.Millisecond, func() {
		_ = fr.SendDynamic(70, "diag-unit", []byte{0x46, 0x00, 0x00, 0x00, 0x00, 0x46})
	})
	must(fr.Start())

	// LIN: a four-entry schedule table at 10ms per slot (40ms round),
	// every response 2 bytes so the injected frame matches the DLC spec.
	cl := v.LINClusters["cabin"]
	resp := func(b byte) lin.PublishFunc {
		return func(at sim.Time) []byte { return []byte{b, b ^ 0xFF} }
	}
	door := lin.NewSlave("door")
	must(door.Publish(0x10, resp(0x10)))
	must(door.Publish(0x11, resp(0x11)))
	mirror := lin.NewSlave("mirror")
	must(mirror.Publish(0x21, resp(0x21)))
	seat := lin.NewSlave("seat")
	must(seat.Publish(0x30, resp(0x30)))
	cl.AddSlave(door)
	cl.AddSlave(mirror)
	cl.AddSlave(seat)
	cl.SetSchedule([]lin.ScheduleEntry{
		{ID: 0x10, Delay: 10 * sim.Millisecond},
		{ID: 0x11, Delay: 10 * sim.Millisecond},
		{ID: 0x21, Delay: 10 * sim.Millisecond},
		{ID: 0x30, Delay: 10 * sim.Millisecond},
	})
	must(cl.Start())

	// Ethernet: a sensor streaming to a logger at 10ms, the logger
	// heartbeating back at 250ms. The logger speaks first so the switch
	// learns its MAC and the sensor stream stays unicast. The ghost
	// station is wired but silent until its attack row.
	ethK := v.KernelFor("telematics")
	sw := v.Switches["telematics"]
	sensor := ethernet.NewHost("sensor", ethernet.LocalMAC(0x51))
	logger := ethernet.NewHost("logger", ethernet.LocalMAC(0x52))
	ghost := ethernet.NewHost("ghost", ethernet.LocalMAC(0x99))
	sw.Connect(sensor, 1)
	sw.Connect(logger, 1)
	sw.Connect(ghost, 1)
	scn.ghost = ghost
	ethK.Every(3*sim.Millisecond, 250*sim.Millisecond, func() {
		_ = logger.Send(ethernet.Frame{Dst: ethernet.LocalMAC(0x51), EtherType: 0x88B7,
			Payload: []byte{0x4C, 0x4F, 0x47, 0x00, 0x00, 0x00, 0x00, 0x01}})
	})
	ethK.Every(5*sim.Millisecond, 10*sim.Millisecond, func() {
		_ = sensor.Send(ethernet.Frame{Dst: ethernet.LocalMAC(0x52), EtherType: 0x88B6,
			Payload: []byte{0x53, 0x45, 0x4E, 0x00, 0x00, 0x00, 0x00, 0x02}})
	})

	// SOME/IP on the same switch: camera offers service 0x1234, display
	// subscribes to eventgroup 0x20 and makes three calls, then the
	// discovery churn stops and the steady state is a notification every
	// 40ms. Confining discovery to [0, 1.2s] keeps the steady-state
	// timeline exactly periodic through the attack window.
	camera := ethernet.NewHost("camera", ethernet.LocalMAC(0x61))
	display := ethernet.NewHost("display", ethernet.LocalMAC(0x62))
	sw.Connect(camera, 1)
	sw.Connect(display, 1)
	scn.display = display
	scn.cameraMAC = ethernet.LocalMAC(0x61)
	srv := someip.NewServer(ethK, camera, 0x1234)
	srv.Handle(0x01, func(p []byte) ([]byte, byte) {
		return []byte{0x4F, 0x4B, 0x00, 0x00}, someip.ReturnOK
	})
	cli := someip.NewClient(display, 7)
	cli.OnOffer(func(service uint16) {
		if service == 0x1234 {
			_ = cli.Subscribe(0x1234, 0x20)
		}
	})
	stopOffer := srv.StartOffering(500 * sim.Millisecond)
	ethK.At(1200*sim.Millisecond, stopOffer)
	ethK.At(10*sim.Millisecond, func() { _ = cli.Find(0x1234) })
	for _, at := range []sim.Time{300 * sim.Millisecond, 600 * sim.Millisecond, 900 * sim.Millisecond} {
		ethK.At(at, func() {
			_ = cli.Call(0x1234, 0x01, []byte{0x52, 0x45, 0x51, 0x00}, func(*someip.Message) {})
		})
	}
	ethK.Every(1020*sim.Millisecond, 40*sim.Millisecond, func() {
		srv.Notify(0x20, []byte{0x43, 0x41, 0x4D, 0x00})
	})

	return v, scn
}

// e21InstallFlexRayMasquerade: from t=4s the slot-9 owner is silenced
// and an intruder transmits in its slot with the victim's exact timing
// and payload size — zero statistical footprint, but the wrong sender
// in an owned TDMA slot. Intrude registers at 4s sharp (an intruder
// wired earlier would collide with the still-talking owner).
func e21InstallFlexRayMasquerade(v *core.Vehicle, s *e21Scenario) {
	frK := v.KernelFor("frchassis")
	fr := v.FlexRayClusters["frchassis"]
	frK.At(e21AttackStart, func() {
		*s.frOwnerSilent = true
		_ = fr.Intrude(9, "rogue-tcu", func(cycle int) []byte {
			return []byte{0xBA, byte(cycle >> 8), byte(cycle), 0, 0, 0, 0, 0xBA}
		})
	})
}

// e21InstallLINInjection: a sporadic master frame reusing scheduled ID
// 0x21, fired exactly between its scheduled occurrences (0x21 polls at
// 20ms within each 40ms round; the injection lands on the round
// boundary), so the inter-arrival gap is exactly half the learned
// period on both sides — invisible to the strict-< interval check and,
// at one frame per 120ms, inside the frequency band. Only the schedule
// model sees the successor-pair violation.
func e21InstallLINInjection(v *core.Vehicle, s *e21Scenario) {
	linK := v.KernelFor("cabin")
	cl := v.LINClusters["cabin"]
	linK.Every(e21AttackStart, 120*sim.Millisecond, func() {
		_ = cl.SendSporadic("rogue-node", 0x21, []byte{0x21, 0xDE})
	})
}

// e21InstallEthernetGhost: the pre-wired ghost station starts sending
// the sensor's traffic class with matching payload length, phased 5ms
// off the sensor's 10ms grid (again exactly half the learned period)
// and inside the learned rate band. Only the station-population model
// flags the unknown source MAC.
func e21InstallEthernetGhost(v *core.Vehicle, s *e21Scenario) {
	ethK := v.KernelFor("telematics")
	// The sensor grid sits at t = 5ms (mod 10ms); starting on the round
	// 10ms boundary puts every ghost frame exactly 5ms — half the
	// learned period — from its legitimate neighbours on both sides.
	ethK.Every(e21AttackStart+10*sim.Millisecond, 30*sim.Millisecond, func() {
		_ = s.ghost.Send(ethernet.Frame{Dst: ethernet.LocalMAC(0x52), EtherType: 0x88B6,
			Payload: []byte{0x47, 0x48, 0x4F, 0x00, 0x00, 0x00, 0x00, 0x03}})
	})
}

// e21InstallSOMEIPSpoof: the display station — a known MAC with a
// learned binding to the SOME/IP EtherType — publishes notifications
// for eventgroup 0x21, which nothing ever subscribed to. Frames are
// timed exactly between the legitimate 40ms notifications (20ms off
// grid) with identical wire size, so rate, interval and DLC all stay
// in band; only the subscription-state model alerts.
func e21InstallSOMEIPSpoof(v *core.Vehicle, s *e21Scenario) {
	ethK := v.KernelFor("telematics")
	spoof := (&someip.Message{ServiceID: 0x1234, MethodID: 0x21,
		Type: someip.TypeNotification, Payload: []byte{0xDE, 0xAD, 0xBE, 0xEF}}).Encode()
	ethK.Every(e21AttackStart, 120*sim.Millisecond, func() {
		_ = s.display.Send(ethernet.Frame{Dst: s.cameraMAC,
			EtherType: someip.EtherTypeSOMEIP, Payload: spoof})
	})
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
