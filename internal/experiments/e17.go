package experiments

import (
	"encoding/binary"
	"fmt"
	"sort"

	"autosec/internal/can"
	"autosec/internal/ethernet"
	"autosec/internal/gateway"
	"autosec/internal/ids"
	"autosec/internal/sim"
	"autosec/internal/workload"
	"autosec/internal/zonal"
)

// E17Zonal compares the classic central-gateway E/E architecture against
// zonal topologies (§7): the same three CAN domains — powertrain, chassis
// and infotainment — and the same logical firewall policy, deployed either
// behind one central gateway or sharded across N zone controllers joined
// by an Ethernet backbone. A compromised infotainment ECU floods
// engine-torque frames until the IDS quarantine reflex fires. The sweep
// measures what zoning buys (attack containment scoped to one zone while
// the other zones' flows keep running) and what it costs (backbone load
// and tunnelling latency on every cross-zone hop).
func E17Zonal(seed uint64) *Table {
	return E17ZonalWith(seed, []int{2, 4, 8})
}

// E17ZonalWith runs the central topology plus one zonal topology per entry
// in zoneCounts. benchreport's -zones flag feeds custom sweeps through
// here; the golden table uses the default {2, 4, 8}.
func E17ZonalWith(seed uint64, zoneCounts []int) *Table {
	t := &Table{
		ID:      "E17",
		Title:   "Central gateway vs zonal E/E topologies under attack (§7)",
		Claim:   "zonal architectures contain a compromised domain behind its zone controller at the cost of backbone load and cross-zone latency",
		Columns: []string{"topology", "attack through", "legit through", "backbone frames", "backbone deliveries", "p95 e2e latency (us)", "quarantined", "others ok"},
	}
	type topo struct {
		name  string
		zones int // 0 = central gateway
	}
	topos := []topo{{"central gateway", 0}}
	for _, n := range zoneCounts {
		topos = append(topos, topo{fmt.Sprintf("%d zones", n), n})
	}
	for _, tp := range topos {
		k := sim.NewKernel(seed)
		pt := can.NewBus(k, "powertrain-bus", 500_000)
		ch := can.NewBus(k, "chassis-bus", 500_000)
		info := can.NewBus(k, "infotainment-bus", 500_000)
		ptM, chM, infoM := can.Netif(pt), can.Netif(ch), can.Netif(info)

		// The logical policy is identical in every topology; the zonal
		// fabric shards it into per-zone tables. Rules carry per-run match
		// counters, so each run builds fresh ones.
		rules := []*gateway.Rule{
			{Name: "legacy-open", From: "infotainment", To: []string{"powertrain"}, IDLo: 0, IDHi: uint32(can.MaxStandardID), Action: gateway.Allow},
			{Name: "telemetry", From: "powertrain", To: []string{"infotainment"}, IDLo: 0x260, IDHi: 0x3EF, Action: gateway.Allow},
			{Name: "chassis-status", From: "chassis", To: []string{"powertrain"}, IDLo: 0x400, IDHi: 0x40F, Action: gateway.Allow},
		}

		var quarantineInfotainment func()
		var quarantined func() bool
		var backboneFrames, backboneDeliveries func() int64
		if tp.zones == 0 {
			g := gateway.New(k, "central")
			_ = g.AttachDomain("powertrain", ptM)
			_ = g.AttachDomain("chassis", chM)
			_ = g.AttachDomain("infotainment", infoM)
			g.SetRules(rules)
			quarantineInfotainment = func() { _ = g.Quarantine("infotainment") }
			quarantined = func() bool { return g.Quarantined("infotainment") }
			backboneFrames = func() int64 { return 0 }
			backboneDeliveries = func() int64 { return 0 }
		} else {
			// Same placement policy as core's zonal build: powertrain in
			// the first zone, chassis in the middle, infotainment in the
			// last, so the attacker's zone never shares a controller with
			// the flows it threatens.
			sw := ethernet.NewSwitch(k, "backbone", 2*sim.Microsecond)
			f := zonal.New(k, ethernet.Netif(sw, 1))
			zs := make([]*zonal.Zone, tp.zones)
			for i := range zs {
				zs[i], _ = f.AddZone(fmt.Sprintf("z%d", i))
			}
			_ = zs[0].AttachDomain("powertrain", ptM)
			_ = zs[(tp.zones-1)/2].AttachDomain("chassis", chM)
			_ = zs[tp.zones-1].AttachDomain("infotainment", infoM)
			f.SetRules(rules)
			quarantineInfotainment = func() { _ = f.QuarantineZoneOf("infotainment") }
			quarantined = func() bool {
				z, _ := f.ZoneOf("infotainment")
				return f.ZoneQuarantined(z.Name)
			}
			backboneFrames = func() int64 { return f.BackboneFrames.Value }
			backboneDeliveries = func() int64 { return f.BackboneDeliveries.Value }
		}

		// Background load: the powertrain matrix on its own bus, the body
		// matrix on the infotainment bus (all of it crosses to powertrain
		// through legacy-open, as in a carried-over legacy policy).
		_, stopPT := workload.StartSenders(k, pt, workload.PowertrainMatrix(), 0.01)
		_, stopBody := workload.StartSenders(k, info, workload.BodyMatrix(), 0.01)
		defer stopPT()
		defer stopBody()

		// IDS watches the powertrain attachment point, where local
		// traffic, the forwarded body matrix and both cross-domain flows
		// all converge; its baseline is trained on exactly that mix.
		eng := ids.NewEngine(ids.NewFrequencyDetector(), ids.NewSpecDetector())
		combined := append(workload.PowertrainMatrix(), workload.BodyMatrix()...)
		clean := workload.SyntheticTrace(combined, 10*sim.Second, seed, 0.01)
		appendPeriodic(clean, 0x155, 100*sim.Millisecond, 4, 10*sim.Second)
		appendPeriodic(clean, 0x405, 100*sim.Millisecond, 2, 10*sim.Second)
		eng.Train(clean)
		eng.Attach(ptM)
		var quarAt sim.Time
		eng.OnAlert(func(ids.Alert) {
			if !quarantined() {
				quarAt = k.Now()
				quarantineInfotainment()
			}
		})

		// Legit cross-zone flows: a nav ping from infotainment carrying a
		// sequence number (for end-to-end latency), and a chassis status
		// heartbeat (the "others ok" probe after quarantine).
		nav := can.NewController("nav")
		info.Attach(nav)
		sendAt := make(map[uint32]sim.Time)
		var navSeq uint32
		k.Every(0, 100*sim.Millisecond, func() {
			p := make([]byte, 4)
			binary.BigEndian.PutUint32(p, navSeq)
			sendAt[navSeq] = k.Now()
			navSeq++
			_ = nav.Send(can.Frame{ID: 0x155, Data: p}, nil)
		})
		status := can.NewController("chassis-ecu")
		ch.Attach(status)
		k.Every(0, 100*sim.Millisecond, func() {
			_ = status.Send(can.Frame{ID: 0x405, Data: []byte{0x05, 0x01}}, nil)
		})

		// Compromised infotainment ECU: engine-torque flood at 1 kHz from
		// t=2s.
		mal := can.NewController("headunit")
		info.Attach(mal)
		k.Every(2*sim.Second, sim.Millisecond, func() {
			_ = mal.Send(can.Frame{ID: 0x0C0, Data: make([]byte, 8)}, nil)
		})

		// The powertrain-side monitor counts what crossed.
		attackThrough, legitThrough, chassisAfterQuar := 0, 0, 0
		var lats []sim.Duration
		mon := can.NewController("monitor")
		pt.Attach(mon)
		mon.OnReceive(func(at sim.Time, f *can.Frame, sender *can.Controller) {
			switch {
			case f.ID == 0x0C0 && sender.Name != "engine":
				attackThrough++
			case f.ID == 0x155:
				legitThrough++
				if len(f.Data) >= 4 {
					if sent, ok := sendAt[binary.BigEndian.Uint32(f.Data)]; ok {
						lats = append(lats, at-sent)
					}
				}
			case f.ID == 0x405 && sender.Name != "engine":
				if quarantined() && at > quarAt {
					chassisAfterQuar++
				}
			}
		})

		k.RunUntil(10 * sim.Second)

		t.AddRow(tp.name, attackThrough, legitThrough, backboneFrames(), backboneDeliveries(),
			p95(lats).Micros(), yesNo(quarantined()), yesNo(chassisAfterQuar > 0))
	}
	return t
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// p95 returns the 95th-percentile latency of the sample set, 0 if empty.
func p95(lats []sim.Duration) sim.Duration {
	if len(lats) == 0 {
		return 0
	}
	s := append([]sim.Duration(nil), lats...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := len(s) * 95 / 100
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}
