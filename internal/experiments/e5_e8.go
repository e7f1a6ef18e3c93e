package experiments

import (
	"fmt"

	"autosec/internal/can"
	"autosec/internal/ecu"
	"autosec/internal/gateway"
	"autosec/internal/ids"
	"autosec/internal/sim"
	"autosec/internal/tradeoff"
	"autosec/internal/verif"
	"autosec/internal/workload"
)

// E5Tradeoff quantifies §5's dynamic security/smartness/communication
// trade-off: a static operating point either overloads the CPU, starves
// perception, or drives exposed; the adaptive controller avoids all three.
func E5Tradeoff(seed uint64) *Table {
	_ = seed // the evaluation is deterministic
	t := &Table{
		ID:      "E5",
		Title:   "Static vs adaptive operating modes over a commute cycle (§5)",
		Claim:   "an autonomous car must make real-time decisions on trade-offs between security, energy, and smartness",
		Columns: []string{"controller", "CPU overload frac", "analytics shortfall (Hz)", "exposed frac", "mean cloud (kbps)", "mode switches"},
	}
	cycle := workload.CommuteCycle()
	dur := 24 * sim.Minute
	const budget = 0.6
	cases := []struct {
		name string
		ctrl tradeoff.Controller
	}{
		{"static-city-sized", tradeoff.Static{M: tradeoff.Mode{Name: "city", AnalyticsHz: 50, MACBits: 64, CloudKbps: 64}}},
		{"static-highway-sized", tradeoff.Static{M: tradeoff.Mode{Name: "hwy", AnalyticsHz: 10, MACBits: 0, CloudKbps: 256}}},
		{"adaptive", tradeoff.Adaptive{}},
	}
	for _, c := range cases {
		r := tradeoff.Evaluate(c.name, cycle, dur, sim.Second, c.ctrl, budget, 1)
		t.AddRow(r.Controller, r.OverloadFrac, r.CoverageShortfall, r.ExposedFrac, r.MeanCloudKbps, r.ModeSwitches)
	}
	return t
}

// E6Verification quantifies §§5-6's verification trade-off: exhaustive
// configuration verification explodes with extensibility headroom, the
// pairwise covering array stays tractable, and reserved-for-future
// features carry a measurable verification overhead today.
func E6Verification(seed uint64) *Table {
	t := &Table{
		ID:      "E6",
		Title:   "Verification cost vs configuration-space growth (§§5-6)",
		Claim:   "extensibility ships more configurations than current use needs, and verification must still cover them",
		Columns: []string{"features", "exhaustive configs", "pairwise rows", "lower bound", "reserved overhead"},
	}
	features := []verif.Feature{
		{Name: "mac-bits", Options: 4},
		{Name: "gateway-ruleset", Options: 3},
		{Name: "ids-detectors", Options: 4},
		{Name: "crypto-suite", Options: 3},
		{Name: "v2x-rotation", Options: 4},
		{Name: "boot-mode", Options: 2},
		{Name: "future-pqc-suite", Options: 3, Reserved: true},
		{Name: "future-radio", Options: 3, Reserved: true},
		{Name: "future-sensor-stack", Options: 4, Reserved: true},
	}
	curve := verif.GrowthCurve(features, seed)
	for i, r := range curve {
		overhead := "n/a"
		if r.ReservedOverhead != 0 {
			overhead = pct(r.ReservedOverhead)
		}
		t.AddRow(i+1, r.TotalConfigs, r.PairwiseRows, r.LowerBound, overhead)
	}
	return t
}

func pct(f float64) string {
	return fmt.Sprintf("%.1f%%", 100*f)
}

// E7AuthenticatedCAN quantifies §6's optimization-vs-security conflict:
// per-frame CMAC on a software MCU blows control deadlines as frame rates
// rise; the SHE accelerator holds the schedule.
func E7AuthenticatedCAN(seed uint64) *Table {
	t := &Table{
		ID:      "E7",
		Title:   "Authenticated CAN: software crypto vs SHE accelerator (§6)",
		Claim:   "optimization needs, particularly real-time requirements, make the security trade-off acute",
		Columns: []string{"frame rate (fps)", "crypto", "CPU util", "control misses", "crypto misses", "crypto p99 (ms)"},
	}
	for _, fps := range []int{200, 500, 1000, 2000} {
		for _, accel := range []bool{false, true} {
			k := sim.NewKernel(seed)
			cpu := ecu.NewCPU(k, "mcu")
			// Control workload: ~45% utilization at mixed periods.
			// Crypto runs at priority 2: above diagnostics (whose 10ms jobs
			// would otherwise block authentication past its deadline) but
			// below the control loops.
			tasks := []*ecu.Task{
				{Name: "torque-loop", Period: 5 * sim.Millisecond, WCET: 1 * sim.Millisecond, Priority: 0},
				{Name: "stability", Period: 10 * sim.Millisecond, WCET: 1500 * sim.Microsecond, Priority: 1},
				{Name: "diagnostics", Period: 100 * sim.Millisecond, WCET: 10 * sim.Millisecond, Priority: 3},
			}
			var stops []func()
			for _, task := range tasks {
				s, err := cpu.AddTask(task)
				if err != nil {
					panic(err)
				}
				stops = append(stops, s)
			}
			// Per-frame CMAC jobs at the lowest priority, 10ms deadline.
			wcet := 400 * sim.Microsecond // software CMAC on an MCU
			name := "software"
			if accel {
				wcet = 40 * sim.Microsecond // SHE-accelerated
				name = "SHE"
			}
			var cryptoMiss int
			var cryptoLat sim.Summary
			cryptoLat.Reserve(5 * fps) // one sample per frame over the 5s horizon
			period := sim.Second / sim.Duration(fps)
			k.Every(0, period, func() {
				start := k.Now()
				_ = cpu.Submit("cmac", wcet, 10*sim.Millisecond, 2, func(at sim.Time, missed bool) {
					cryptoLat.Observe((at - start).Millis())
					if missed {
						cryptoMiss++
					}
				})
			})
			_ = k.RunUntil(5 * sim.Second)
			for _, s := range stops {
				s()
			}
			controlMisses := int64(0)
			for _, task := range tasks {
				controlMisses += task.Misses.Value
			}
			t.AddRow(fps, name, cpu.Utilization(), controlMisses, cryptoMiss, cryptoLat.Quantile(0.99))
		}
	}
	return t
}

// E8Gateway quantifies §7's Secure Gateway claim: rule granularity and the
// quarantine reflex decide how much of an infotainment compromise reaches
// the powertrain.
func E8Gateway(seed uint64) *Table {
	t := &Table{
		ID:      "E8",
		Title:   "Gateway containment of a compromised domain (§7)",
		Claim:   "in case one IVN is compromised, the gateway can isolate it and prevent propagation",
		Columns: []string{"configuration", "attack frames through", "legit frames through", "quarantined"},
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
			g.AddRule(&gateway.Rule{Name: "coarse", From: "infotainment", IDLo: 0, IDHi: uint32(can.MaxStandardID), Action: gateway.Allow})
		}, false},
		{"fine-grained rules", func(g *gateway.Gateway, _ *ids.Engine) {
			g.AddRule(&gateway.Rule{Name: "nav-only", From: "infotainment", IDLo: 0x150, IDHi: 0x15F, Action: gateway.Allow, RatePerSec: 50})
		}, false},
		{"coarse + IDS quarantine reflex", func(g *gateway.Gateway, eng *ids.Engine) {
			g.AddRule(&gateway.Rule{Name: "coarse", From: "infotainment", IDLo: 0, IDHi: uint32(can.MaxStandardID), Action: gateway.Allow})
			eng.OnAlert(func(ids.Alert) { _ = g.Quarantine("infotainment") })
		}, true},
	}
	for _, c := range configs {
		k := sim.NewKernel(seed)
		info := can.NewBus(k, "infotainment", 500_000)
		pt := can.NewBus(k, "powertrain", 500_000)
		g := gateway.New(k, "central")
		_ = g.AttachDomain("infotainment", can.Netif(info))
		_ = g.AttachDomain("powertrain", can.Netif(pt))

		// Powertrain traffic + IDS.
		_, stopTraffic := workload.StartSenders(k, pt, workload.PowertrainMatrix(), 0.01)
		eng := ids.NewEngine(ids.NewFrequencyDetector(), ids.NewSpecDetector())
		clean := workload.SyntheticTrace(workload.PowertrainMatrix(), 10*sim.Second, seed, 0.01)
		// The legit cross-domain nav message is part of the spec baseline.
		appendPeriodic(clean, 0x155, 100*sim.Millisecond, 4, 10*sim.Second)
		eng.Train(clean)
		eng.Attach(can.Netif(pt))

		c.setup(g, eng)

		// Observer on the powertrain counts what crossed.
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

		// Legit infotainment→powertrain nav message at 10 Hz.
		nav := can.NewController("nav")
		info.Attach(nav)
		stopNav := can.PeriodicSender(k, nav, can.Frame{ID: 0x155, Data: make([]byte, 4)}, 100*sim.Millisecond, 0)
		// The compromised head unit injects engine-torque frames at 1 kHz.
		atk := can.NewController("headunit")
		info.Attach(atk)
		stopAtk := can.PeriodicSender(k, atk, can.Frame{ID: 0x0C0, Data: make([]byte, 8)}, sim.Millisecond, 0)

		_ = k.RunUntil(10 * sim.Second)
		stopTraffic()
		stopNav()
		stopAtk()

		t.AddRow(c.name, attackThrough, legitThrough, g.Quarantined("infotainment"))
	}
	return t
}
