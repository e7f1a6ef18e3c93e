package experiments

import (
	"encoding/binary"
	"fmt"

	"autosec/internal/can"
	"autosec/internal/ethernet"
	"autosec/internal/gateway"
	"autosec/internal/ids"
	"autosec/internal/sim"
	"autosec/internal/workload"
	"autosec/internal/zonal"
)

// E19KernelPar reruns the E17 zonal attack-and-containment scenario on
// per-zone event kernels: one conservative kernel per zone
// (sim.KernelGroup), synchronized only at Ethernet-backbone crossings
// with the tunnel latency as lookahead. The table is the correctness
// artifact of the per-zone engine — attack frames through, quarantine
// reflex, backbone load and end-to-end latency for 2/4/8/16 zones — so
// the golden file pins both the scenario physics and the determinism of
// the windowed synchronization protocol. Wall-clock time is deliberately
// absent (machine-dependent); BenchmarkE19KernelPar measures it.
func E19KernelPar(seed uint64) *Table {
	t := &Table{
		ID:    "E19",
		Title: "Per-zone kernels: conservative backbone-lookahead sync (§7)",
		Claim: "partitioning the vehicle at the backbone gives each zone its own event kernel with byte-deterministic results; intra-zone traffic never synchronizes",
		Columns: []string{"topology", "events", "attack through", "legit through",
			"backbone frames", "backbone deliveries", "p95 e2e latency (us)", "quarantined", "others ok"},
	}
	hop := 2 * sim.Microsecond
	for _, zones := range []int{2, 4, 8, 16} {
		g := sim.NewKernelGroup(seed, ethernet.TunnelLookahead(hop, ethernet.DefaultLinkBps))
		f := zonal.NewPartitioned(g, hop, ethernet.DefaultLinkBps)
		zs := make([]*zonal.Zone, zones)
		for i := range zs {
			zs[i], _ = f.AddZone(fmt.Sprintf("z%d", i))
		}
		// Same placement policy as E17 and core's zonal build: powertrain
		// fronts the first zone, chassis the middle, infotainment the last.
		// Each bus lives on its owning zone's kernel, so its arbitration
		// and workload events never synchronize with other zones.
		ptZone, chZone, infoZone := zs[0], zs[(zones-1)/2], zs[zones-1]
		pt := can.NewBus(ptZone.Kernel(), "powertrain-bus", 500_000)
		ch := can.NewBus(chZone.Kernel(), "chassis-bus", 500_000)
		info := can.NewBus(infoZone.Kernel(), "infotainment-bus", 500_000)
		ptM, chM, infoM := can.Netif(pt), can.Netif(ch), can.Netif(info)
		_ = ptZone.AttachDomain("powertrain", ptM)
		_ = chZone.AttachDomain("chassis", chM)
		_ = infoZone.AttachDomain("infotainment", infoM)
		f.SetRules([]*gateway.Rule{
			{Name: "legacy-open", From: "infotainment", To: []string{"powertrain"}, IDLo: 0, IDHi: uint32(can.MaxStandardID), Action: gateway.Allow},
			{Name: "telemetry", From: "powertrain", To: []string{"infotainment"}, IDLo: 0x260, IDHi: 0x3EF, Action: gateway.Allow},
			{Name: "chassis-status", From: "chassis", To: []string{"powertrain"}, IDLo: 0x400, IDHi: 0x40F, Action: gateway.Allow},
		})

		// Background load on the owning kernels.
		_, stopPT := workload.StartSenders(ptZone.Kernel(), pt, workload.PowertrainMatrix(), 0.01)
		_, stopBody := workload.StartSenders(infoZone.Kernel(), info, workload.BodyMatrix(), 0.01)

		// IDS at the powertrain attachment point (zone 0's kernel). Its
		// containment reflex crosses the kernel boundary: the quarantine
		// request rides an inter-kernel message and lands one backbone
		// lookahead later.
		eng := ids.NewEngine(ids.NewFrequencyDetector(), ids.NewSpecDetector())
		combined := append(workload.PowertrainMatrix(), workload.BodyMatrix()...)
		clean := workload.SyntheticTrace(combined, 10*sim.Second, seed, 0.01)
		appendPeriodic(clean, 0x155, 100*sim.Millisecond, 8, 10*sim.Second)
		appendPeriodic(clean, 0x405, 100*sim.Millisecond, 2, 10*sim.Second)
		eng.Train(clean.Netif())
		eng.Attach(ptM)
		var quarAt sim.Time
		quarRequested := false
		eng.OnAlert(func(ids.Alert) {
			if !quarRequested {
				quarRequested = true
				quarAt = ptZone.Kernel().Now()
				_ = f.RequestZoneQuarantine("powertrain", "infotainment")
			}
		})

		// Legit cross-zone flows. The nav ping carries its own send time in
		// the payload — a per-frame timestamp map would be cross-kernel
		// shared state, but virtual time is global, so the receiver can
		// compute end-to-end latency from the payload alone.
		nav := can.NewController("nav")
		info.Attach(nav)
		navK := infoZone.Kernel()
		navK.Every(0, 100*sim.Millisecond, func() {
			p := make([]byte, 8)
			binary.BigEndian.PutUint64(p, uint64(navK.Now()))
			_ = nav.Send(can.Frame{ID: 0x155, Data: p}, nil)
		})
		status := can.NewController("chassis-ecu")
		ch.Attach(status)
		chZone.Kernel().Every(0, 100*sim.Millisecond, func() {
			_ = status.Send(can.Frame{ID: 0x405, Data: []byte{0x05, 0x01}}, nil)
		})

		// Compromised infotainment ECU: engine-torque flood at 1 kHz from
		// t=2s, on the infotainment zone's kernel.
		mal := can.NewController("headunit")
		info.Attach(mal)
		infoZone.Kernel().Every(2*sim.Second, sim.Millisecond, func() {
			_ = mal.Send(can.Frame{ID: 0x0C0, Data: make([]byte, 8)}, nil)
		})

		// The powertrain-side monitor runs on zone 0's kernel and touches
		// only member-0 state (quarAt is written by the IDS reflex on the
		// same kernel); fabric-wide aggregates are read after the run.
		attackThrough, legitThrough, chassisAfterQuar := 0, 0, 0
		var lats []sim.Duration
		mon := can.NewController("monitor")
		pt.Attach(mon)
		mon.OnReceive(func(at sim.Time, fr *can.Frame, sender *can.Controller) {
			switch {
			case fr.ID == 0x0C0 && sender.Name != "engine":
				attackThrough++
			case fr.ID == 0x155:
				legitThrough++
				if len(fr.Data) >= 8 {
					lats = append(lats, at-sim.Time(binary.BigEndian.Uint64(fr.Data)))
				}
			case fr.ID == 0x405 && sender.Name != "engine":
				if quarRequested && at > quarAt {
					chassisAfterQuar++
				}
			}
		})

		if err := g.RunUntil(10 * sim.Second); err != nil {
			panic(err)
		}
		stopPT()
		stopBody()

		quarantined := f.ZoneQuarantined(infoZone.Name)
		t.AddRow(fmt.Sprintf("%d zones", zones), g.Steps(), attackThrough, legitThrough,
			f.BackboneFramesTotal(), f.BackboneDeliveriesTotal(),
			p95(lats).Micros(), yesNo(quarantined), yesNo(quarantined && chassisAfterQuar > 0))
	}
	return t
}
