package experiments

import (
	"autosec/internal/can"
	"autosec/internal/ethernet"
	"autosec/internal/gateway"
	"autosec/internal/ids"
	"autosec/internal/netif"
	"autosec/internal/sim"
	"autosec/internal/workload"
)

// E16CrossMediumGateway exercises §4's observation that new in-vehicle
// network technology (automotive Ethernet) arrives alongside — not
// instead of — the legacy buses, so the central gateway must police
// traffic that crosses media. A CAN powertrain domain and an Ethernet
// telematics domain join through one gateway speaking the netif fabric:
// telematics units reach the powertrain by tunnelling CAN frames in
// Ethernet (DoIP-style), and selected powertrain telemetry is exported
// the other way. A compromised telematics unit floods tunnel-encapsulated
// engine-torque frames; the sweep measures what each gateway
// configuration lets across the medium boundary.
func E16CrossMediumGateway(seed uint64) *Table {
	t := &Table{
		ID:      "E16",
		Title:   "Cross-medium gateway: CAN/Ethernet fabric under attack (§4, §7)",
		Claim:   "gateways must extend across heterogeneous network technologies as Ethernet joins the legacy buses",
		Columns: []string{"configuration", "attack frames through", "legit frames through", "telemetry exported", "quarantined"},
	}
	type cfg struct {
		name   string
		setup  func(g *gateway.Gateway, eng *ids.Engine)
		reflex bool
	}
	configs := []cfg{
		{"no gateway (default allow)", func(g *gateway.Gateway, _ *ids.Engine) {
			g.DefaultAction = gateway.Allow
		}, false},
		{"coarse allow-all rule", func(g *gateway.Gateway, _ *ids.Engine) {
			g.AddRule(&gateway.Rule{Name: "coarse", From: "*", IDLo: 0, IDHi: uint32(can.MaxStandardID), Action: gateway.Allow})
		}, false},
		{"fine-grained + rate limit", func(g *gateway.Gateway, _ *ids.Engine) {
			g.AddRule(&gateway.Rule{Name: "nav-only", From: "telematics", Medium: netif.Only(netif.CAN),
				IDLo: 0x150, IDHi: 0x15F, To: []string{"powertrain"}, Action: gateway.Allow, RatePerSec: 50})
			g.AddRule(&gateway.Rule{Name: "telemetry-export", From: "powertrain",
				IDLo: 0x260, IDHi: 0x3EF, To: []string{"telematics"}, Action: gateway.Allow})
		}, false},
		{"coarse + IDS quarantine reflex", func(g *gateway.Gateway, eng *ids.Engine) {
			g.AddRule(&gateway.Rule{Name: "open", From: "*", IDLo: 0, IDHi: uint32(can.MaxStandardID), Action: gateway.Allow})
			g.AddRule(&gateway.Rule{Name: "telemetry-export", From: "powertrain",
				IDLo: 0x260, IDHi: 0x3EF, To: []string{"telematics"}, Action: gateway.Allow})
			eng.OnAlert(func(ids.Alert) { _ = g.Quarantine("telematics") })
		}, true},
	}
	for _, c := range configs {
		k := sim.NewKernel(seed)
		pt := can.NewBus(k, "powertrain", 500_000)
		sw := ethernet.NewSwitch(k, "telematics", 2*sim.Microsecond)
		ptM := can.Netif(pt)
		ethM := ethernet.Netif(sw, 1)

		g := gateway.New(k, "central")
		_ = g.AttachDomain("powertrain", ptM)
		_ = g.AttachDomain("telematics", ethM)

		// Powertrain traffic + IDS (trained with the legit cross-medium
		// nav message in its spec baseline, as in E8).
		_, stopTraffic := workload.StartSenders(k, pt, workload.PowertrainMatrix(), 0.01)
		eng := ids.NewEngine(ids.NewFrequencyDetector(), ids.NewSpecDetector())
		clean := workload.SyntheticTrace(workload.PowertrainMatrix(), 10*sim.Second, seed, 0.01)
		appendPeriodic(clean, 0x155, 100*sim.Millisecond, 4, 10*sim.Second)
		eng.Train(clean)
		eng.Attach(ptM)

		c.setup(g, eng)

		// Monitor on the CAN side counts what crossed the boundary.
		attackThrough, legitThrough := 0, 0
		mon := can.NewController("monitor")
		pt.Attach(mon)
		mon.OnReceive(func(_ sim.Time, f *can.Frame, sender *can.Controller) {
			switch {
			case f.ID == 0x0C0 && sender.Name != "engine":
				attackThrough++
			case f.ID == 0x155:
				legitThrough++
			}
		})

		// Sink on the Ethernet side counts exported telemetry: tunnel
		// frames whose inner CAN ID is in the export range. (Broadcast
		// tunnel frames injected by the telematics units themselves carry
		// inner IDs outside it, so they never count.)
		exported := 0
		sink, _ := ethM.Open("telemetry-sink")
		sink.OnReceive(func(_ sim.Time, f *netif.Frame) {
			var inner netif.Frame
			if netif.IsTunnel(f) && netif.Decapsulate(&inner, f) == nil &&
				inner.ID >= 0x260 && inner.ID <= 0x3EF {
				exported++
			}
		})

		// Legit telematics unit: nav request 0x155 at 10 Hz, tunnelled.
		nav, _ := ethM.Open("nav")
		var navScratch, navOut netif.Frame
		var navBuf []byte
		k.Every(0, 100*sim.Millisecond, func() {
			navScratch = netif.Frame{Medium: netif.CAN, ID: 0x155, Priority: 0x155, Payload: make([]byte, 4)}
			netif.Encapsulate(&navOut, &navScratch, &navBuf)
			_ = nav.Send(&navOut)
		})
		// Compromised head unit: engine-torque frames at 1 kHz, tunnelled.
		atk, _ := ethM.Open("headunit")
		var atkScratch, atkOut netif.Frame
		var atkBuf []byte
		k.Every(0, sim.Millisecond, func() {
			atkScratch = netif.Frame{Medium: netif.CAN, ID: 0x0C0, Priority: 0x0C0, Payload: make([]byte, 8)}
			netif.Encapsulate(&atkOut, &atkScratch, &atkBuf)
			_ = atk.Send(&atkOut)
		})

		_ = k.RunUntil(10 * sim.Second)
		stopTraffic()

		quar := "no"
		if g.Quarantined("telematics") {
			quar = "yes"
		}
		t.AddRow(c.name, attackThrough, legitThrough, exported, quar)
	}
	return t
}
