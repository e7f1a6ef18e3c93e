// Command autosim runs named end-to-end scenarios on the full vehicle
// model and prints an event narrative plus final statistics.
//
// With -seeds N a scenario replicates across N seeds on a -par-sized
// worker pool; each replicate runs on its own kernel and its narrative is
// captured and printed in seed order, so the output is identical at any
// parallelism.
//
// Observability: -trace FILE exports a Chrome trace_event JSON of the run
// (open in chrome://tracing or Perfetto), -timeline FILE a plain-text
// event timeline, and -metrics prints the obs registry snapshot as a
// table. -trace/-timeline require a single seed (one timeline per
// kernel); -metrics with -seeds N merges the per-seed snapshots into
// mean ± 95% CI columns through the same deterministic fold as the
// experiment tables.
//
// Fleet observability (fleet-compromise scenario): -fleetpar pins the
// fleet driver's worker count (the narrative and every deterministic
// artifact are byte-identical for any value — CI diffs 1 against 8),
// -prom FILE writes the index-order-merged fleet registry as a
// Prometheus text exposition, -fleetrate R samples vehicles into the
// flight recorder (incident vehicles are always kept), -fleettrace DIR
// exports the kept traces as Chrome trace JSON, and -progress streams
// fleet completion and vehicles/sec to stderr. -metrics prints the
// merged fleet registry instead of the old two-gauge summary.
//
// Usage:
//
//	autosim list
//	autosim run [-seed N] [-seeds N] [-par N] [-trace F] [-timeline F] [-metrics]
//	            [-fleetpar N] [-prom F] [-fleetrate R] [-fleettrace DIR] [-progress] <scenario>
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"autosec/internal/can"
	"autosec/internal/core"
	"autosec/internal/experiments"
	"autosec/internal/fleet"
	"autosec/internal/gateway"
	"autosec/internal/ids"
	"autosec/internal/keyless"
	"autosec/internal/obs"
	"autosec/internal/policy"
	"autosec/internal/runner"
	"autosec/internal/she"
	"autosec/internal/sim"
	"autosec/internal/uds"
	"autosec/internal/workload"
)

// obsPair carries a scenario run's observability sinks; the zero value
// (both nil) is "observability off" and costs the scenario nothing.
type obsPair struct {
	tr  *obs.Tracer
	reg *obs.Registry
}

type scenario struct {
	desc string
	run  func(w io.Writer, seed uint64, ob obsPair)
}

// Fleet observability flags, consumed by the fleet-compromise scenario.
// All read-only after flag parsing.
var (
	fleetPar      int     // -fleetpar: fleet driver worker count (0 = GOMAXPROCS)
	fleetRate     float64 // -fleetrate: flight-recorder sample rate
	fleetTraceDir string  // -fleettrace: Chrome trace export directory
	fleetProm     string  // -prom: Prometheus exposition output file
	fleetProgress bool    // -progress: stream drive progress to stderr
)

var scenarios = map[string]scenario{
	"baseline-drive": {
		desc: "clean 10s drive: traffic on all domains, IDS quiet, gateway deny-by-default",
		run:  runBaseline,
	},
	"headunit-compromise": {
		desc: "compromised infotainment ECU attacks the powertrain; IDS + quarantine reflex contain it",
		run:  runHeadunitCompromise,
	},
	"policy-upgrade": {
		desc: "in-field signed policy update: enable 32-bit CAN MACs, add a gateway rule and a detector",
		run:  runPolicyUpgrade,
	},
	"relay-theft": {
		desc: "PKES relay theft attempt against a car with and without distance bounding",
		run:  runRelayTheft,
	},
	"bus-off-attack": {
		desc: "targeted bit-error attack drives one victim ECU to bus-off while bystanders keep running",
		run:  runBusOffAttack,
	},
	"diagnostic-attack": {
		desc: "UDS SecurityAccess sniffing attack against the weak XOR scheme, then against SHE-CMAC",
		run:  runDiagnosticAttack,
	},
	"zonal-compromise": {
		desc: "4-zone E/E architecture: compromised infotainment zone is quarantined at its zone controller, other zones unaffected",
		run:  runZonalCompromise,
	},
	"fleet-compromise": {
		desc: "2000-vehicle pooled fleet: 20% carry a compromised head unit; per-vehicle quarantine reflexes contain the campaign",
		run:  runFleetCompromise,
	},
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "list":
		names := make([]string, 0, len(scenarios))
		for n := range scenarios {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("%-22s %s\n", n, scenarios[n].desc)
		}
	case "run":
		fs := flag.NewFlagSet("run", flag.ExitOnError)
		seed := fs.Uint64("seed", 1, "base scenario seed")
		nseeds := fs.Int("seeds", 1, "number of replicate seeds (seed, seed+1, ...)")
		par := fs.Int("par", runtime.GOMAXPROCS(0), "replication worker pool size")
		traceFile := fs.String("trace", "", "write a Chrome trace_event JSON of the run to this file (single seed only)")
		timelineFile := fs.String("timeline", "", "write a plain-text event timeline to this file (single seed only)")
		metrics := fs.Bool("metrics", false, "print the observability metrics snapshot after the run")
		fpar := fs.Int("fleetpar", 0, "fleet scenario: fleet driver worker count (0 = GOMAXPROCS; any value prints identical output)")
		frate := fs.Float64("fleetrate", 0, "fleet scenario: flight-recorder sample rate in [0,1] (incident vehicles always kept)")
		ftrace := fs.String("fleettrace", "", "fleet scenario: export kept flight-recorder traces as Chrome JSON under this directory")
		prom := fs.String("prom", "", "fleet scenario: write the merged fleet registry as a Prometheus text exposition to this file (single seed only)")
		prog := fs.Bool("progress", false, "fleet scenario: stream drive progress and vehicles/sec to stderr")
		_ = fs.Parse(os.Args[2:])
		if fs.NArg() != 1 {
			usage()
		}
		if *par <= 0 {
			*par = runtime.GOMAXPROCS(0)
		}
		if *fpar < 0 || *frate < 0 {
			fmt.Fprintln(os.Stderr, "autosim: -fleetpar and -fleetrate must be >= 0")
			os.Exit(2)
		}
		if (*prom != "" || *ftrace != "") && *nseeds > 1 {
			fmt.Fprintln(os.Stderr, "autosim: -prom/-fleettrace need a single seed (one artifact per run); drop -seeds")
			os.Exit(2)
		}
		if *traceFile != "" && (*frate > 0 || *ftrace != "" || *prom != "") {
			fmt.Fprintln(os.Stderr, "autosim: -trace instruments vehicle 0 only; use -fleetrate/-fleettrace for fleet-wide flight recording")
			os.Exit(2)
		}
		if *ftrace != "" && *frate <= 0 {
			fmt.Fprintln(os.Stderr, "autosim: -fleettrace needs -fleetrate > 0 to enable the flight recorder")
			os.Exit(2)
		}
		fleetPar, fleetRate, fleetTraceDir, fleetProm, fleetProgress = *fpar, *frate, *ftrace, *prom, *prog
		sc, ok := scenarios[fs.Arg(0)]
		if !ok {
			fmt.Fprintf(os.Stderr, "autosim: unknown scenario %q (try 'autosim list')\n", fs.Arg(0))
			os.Exit(2)
		}
		if *nseeds <= 1 {
			runSingle(sc, *seed, *traceFile, *timelineFile, *metrics)
			return
		}
		if *traceFile != "" || *timelineFile != "" {
			fmt.Fprintln(os.Stderr, "autosim: -trace/-timeline need a single seed (one timeline per kernel); drop -seeds or use -seed")
			os.Exit(2)
		}
		replicate(fs.Arg(0), sc, *seed, *nseeds, *par, *metrics)
	default:
		usage()
	}
}

// runSingle executes one replicate with whatever observability the flags
// asked for.
func runSingle(sc scenario, seed uint64, traceFile, timelineFile string, metrics bool) {
	var ob obsPair
	if traceFile != "" || timelineFile != "" {
		ob.tr = obs.NewTracer(0)
	}
	if metrics {
		ob.reg = obs.NewRegistry()
	}
	sc.run(os.Stdout, seed, ob)
	if traceFile != "" {
		f, err := os.Create(traceFile)
		if err != nil {
			fatal(err)
		}
		if err := ob.tr.WriteChromeTrace(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("trace: %d events (%d dropped) -> %s\n", ob.tr.Len(), ob.tr.Dropped(), traceFile)
	}
	if timelineFile != "" {
		f, err := os.Create(timelineFile)
		if err != nil {
			fatal(err)
		}
		if err := ob.tr.WriteTimeline(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	if metrics {
		fmt.Println()
		fmt.Print(experiments.MetricsTable(ob.reg.Snapshot()))
	}
}

// replicate runs one scenario across consecutive seeds on the worker
// pool, capturing each replicate's narrative, and prints them in seed
// order — byte-identical output at any -par. With metrics on, each
// replicate fills its own registry and the per-seed snapshots fold into
// one mean ± CI table.
func replicate(name string, sc scenario, seed uint64, nseeds, par int, metrics bool) {
	type rep struct {
		narrative string
		metrics   *experiments.Table
	}
	seeds := runner.Seeds(seed, nseeds)
	results, err := runner.Map(context.Background(), seeds, par,
		func(_ context.Context, s uint64) (rep, error) {
			var buf bytes.Buffer
			var ob obsPair
			if metrics {
				ob.reg = obs.NewRegistry()
			}
			sc.run(&buf, s, ob)
			r := rep{narrative: buf.String()}
			if metrics {
				r.metrics = experiments.MetricsTable(ob.reg.Snapshot())
			}
			return r, nil
		})
	if err != nil {
		fatal(err)
	}
	perSeed := make([][]*experiments.Table, 0, len(results))
	for _, r := range results {
		fmt.Printf("=== %s seed=%d ===\n", name, r.Seed)
		if r.Err != nil {
			fatal(r.Err)
		}
		fmt.Print(r.Value.narrative)
		fmt.Println()
		if metrics {
			perSeed = append(perSeed, []*experiments.Table{r.Value.metrics})
		}
	}
	if metrics {
		agg, err := experiments.Aggregate(perSeed)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("=== metrics across %d seeds ===\n", nseeds)
		for _, t := range agg {
			fmt.Print(t.String())
		}
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: autosim list | autosim run [-seed N] [-seeds N] [-par N] [-trace F] [-timeline F] [-metrics] <scenario>")
	os.Exit(2)
}

func mustVehicle(seed uint64, policyKey []byte) *core.Vehicle {
	v, err := core.NewVehicle(core.Config{VIN: "AUTOSIM-0001", Seed: seed, PolicyKey: policyKey})
	if err != nil {
		fatal(err)
	}
	return v
}

func runBaseline(w io.Writer, seed uint64, ob obsPair) {
	v := mustVehicle(seed, nil)
	v.Instrument(ob.tr, ob.reg)
	v.TrainIDS(workload.SyntheticTrace(workload.PowertrainMatrix(), 10*sim.Second, seed, 0.01))
	v.StartTraffic()
	_ = v.Kernel.RunUntil(10 * sim.Second)
	v.StopTraffic()

	fmt.Fprintln(w, "baseline drive complete (10s virtual)")
	names := make([]string, 0, len(v.Buses))
	for name := range v.Buses {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		bus := v.Buses[name]
		fmt.Fprintf(w, "  %-13s load=%5.1f%% frames=%d\n", name, 100*bus.Load(), bus.FramesOK.Value)
	}
	fmt.Fprintf(w, "  gateway: forwarded=%d blocked=%d\n", v.Gateway.Forwarded.Value, v.Gateway.Blocked.Value)
	fmt.Fprintf(w, "  IDS: %s\n", v.IDS.Summary())
}

func runHeadunitCompromise(w io.Writer, seed uint64, ob obsPair) {
	v := mustVehicle(seed, nil)
	v.Instrument(ob.tr, ob.reg)
	v.Gateway.DefaultAction = gateway.Allow // the weak pre-hardening baseline
	// In permissive mode the gateway forwards body-domain traffic into the
	// powertrain, so the clean baseline the IDS learns must include it.
	combined := append(workload.PowertrainMatrix(), workload.BodyMatrix()...)
	v.TrainIDS(workload.SyntheticTrace(combined, 10*sim.Second, seed, 0.01))
	v.ArmAutoQuarantine(core.DomainInfotainment)
	v.StartTraffic()

	fmt.Fprintln(w, "t=0s      drive starts; gateway in permissive (legacy) mode")
	attacker := can.NewController("compromised-headunit")
	v.Buses[core.DomainInfotainment].Attach(attacker)
	var quarantinedAt sim.Time = -1
	v.IDS.OnAlert(func(a ids.Alert) {
		if quarantinedAt < 0 {
			quarantinedAt = a.At
		}
	})
	v.Kernel.At(2*sim.Second, func() {
		fmt.Fprintln(w, "t=2s      head unit compromised: injecting torque frames at 1 kHz into the powertrain")
	})
	var stopAtk func()
	v.Kernel.At(2*sim.Second, func() {
		stopAtk = can.PeriodicSender(v.Kernel, attacker, can.Frame{ID: 0x0C0, Data: make([]byte, 8)}, sim.Millisecond, 0)
	})
	_ = v.Kernel.RunUntil(10 * sim.Second)
	if stopAtk != nil {
		stopAtk()
	}
	v.StopTraffic()

	if quarantinedAt >= 0 {
		fmt.Fprintf(w, "t=%-7v IDS alert -> gateway quarantined %s\n", quarantinedAt, core.DomainInfotainment)
	}
	fmt.Fprintf(w, "final: IDS %s; gateway quarantine=%v; frames dropped in quarantine=%d\n",
		v.IDS.Summary(), v.Gateway.Quarantined(core.DomainInfotainment), v.Gateway.QuarDrops.Value)
}

func runPolicyUpgrade(w io.Writer, seed uint64, ob obsPair) {
	auth, err := policy.NewAuthority()
	if err != nil {
		fatal(err)
	}
	v := mustVehicle(seed, auth.PublicKey())
	v.Instrument(ob.tr, ob.reg)
	fmt.Fprintf(w, "vehicle built; MACBits=%d, gateway rules=%d, detectors=%v\n",
		v.MACBits, len(v.Gateway.Rules()), v.IDS.Detectors())

	p := &policy.Policy{
		Name:    "hardening-2026-07",
		Version: 1,
		Directives: []policy.Directive{
			{Kind: "crypto.mac-bits", Params: map[string]string{"bits": "32"}},
			{Kind: "gateway.rule", Params: map[string]string{
				"name": "nav-to-pt", "from": core.DomainInfotainment,
				"idlo": "0x150", "idhi": "0x15F", "action": "allow", "to": core.DomainPowertrain, "rate": "50"}},
			{Kind: "ids.detector", Params: map[string]string{"name": "entropy"}},
		},
	}
	auth.Sign(p)
	if err := v.Policy.Install(p); err != nil {
		fatal(err)
	}
	fmt.Fprintf(w, "installed signed policy %s@v%d in-field\n", p.Name, p.Version)
	fmt.Fprintf(w, "now: MACBits=%d, gateway rules=%d, detectors=%v\n",
		v.MACBits, len(v.Gateway.Rules()), v.IDS.Detectors())
	fmt.Fprintf(w, "architecture upgrade log: %v\n", v.Arch.UpgradeLog)

	// A replayed (stale) policy is refused.
	if err := v.Policy.Install(p); err != nil {
		fmt.Fprintf(w, "replay of the same policy correctly refused: %v\n", err)
	}
}

func runRelayTheft(w io.Writer, seed uint64, ob obsPair) {
	_ = seed
	var key [16]byte
	copy(key[:], "autosim-pkes-key")
	fob := keyless.NewFob(key)
	fob.Pos = keyless.Position{X: 60} // fob on the hallway table
	relay := &keyless.Relay{
		PosA:    keyless.Position{X: 1},
		PosB:    keyless.Position{X: 59.5},
		Latency: 10 * sim.Microsecond,
	}

	plain := keyless.NewCar(key)
	plain.Instrument(ob.tr, ob.reg, nil)
	rtt, err := plain.TryRelayUnlock(relay, fob)
	fmt.Fprintf(w, "legacy PKES: relay attack rtt=%v -> unlocked=%v\n", rtt, err == nil)

	hardened := keyless.NewCar(key)
	hardened.DistanceBounding = true
	hardened.RTTBudget = 2*sim.Millisecond + 200*sim.Nanosecond
	hardened.Instrument(ob.tr, nil, nil) // one registry owner: the legacy car
	rtt, err = hardened.TryRelayUnlock(relay, fob)
	fmt.Fprintf(w, "distance-bounded PKES: relay attack rtt=%v -> unlocked=%v (%v)\n", rtt, err == nil, err)

	fob.Pos = keyless.Position{X: 1}
	rtt, err = hardened.TryUnlock(fob)
	fmt.Fprintf(w, "owner at the door: rtt=%v -> unlocked=%v\n", rtt, err == nil)
}

func runBusOffAttack(w io.Writer, seed uint64, ob obsPair) {
	v := mustVehicle(seed, nil)
	v.Instrument(ob.tr, ob.reg)
	bus := v.Buses[core.DomainPowertrain]
	victim := can.NewController("brake-ecu")
	bystander := can.NewController("engine-ecu")
	bus.Attach(victim)
	bus.Attach(bystander)

	fmt.Fprintln(w, "t=0s      powertrain running: brake-ecu (0x100) and engine-ecu (0x0C0) both periodic")
	stopV := can.PeriodicSender(v.Kernel, victim, can.Frame{ID: 0x100, Data: []byte{1}}, 10*sim.Millisecond, 0)
	stopB := can.PeriodicSender(v.Kernel, bystander, can.Frame{ID: 0x0C0, Data: []byte{2}}, 10*sim.Millisecond, 0)

	v.Kernel.At(sim.Second, func() {
		fmt.Fprintln(w, "t=1s      attacker begins forcing bit errors on every brake-ecu transmission")
		bus.TargetedError = func(_ *can.Frame, sender *can.Controller) bool {
			return sender.Name == "brake-ecu"
		}
	})
	var busOffAt sim.Time = -1
	v.Kernel.Every(0, 10*sim.Millisecond, func() {
		if busOffAt < 0 && victim.State() == can.BusOff {
			busOffAt = v.Kernel.Now()
		}
	})
	_ = v.Kernel.RunUntil(3 * sim.Second)
	stopV()
	stopB()

	if busOffAt >= 0 {
		fmt.Fprintf(w, "t=%-7v brake-ecu entered bus-off (TEC > 255) and disconnected itself\n", busOffAt)
	}
	tec, _ := victim.Counters()
	fmt.Fprintf(w, "final: victim state=%v TEC=%d dropped=%d; bystander state=%v sent=%d\n",
		victim.State(), tec, victim.FramesDropped.Value,
		bystander.State(), bystander.FramesSent.Value)
	fmt.Fprintln(w, "(the error-handling that gives CAN its safety is itself the DoS lever)")
}

func runDiagnosticAttack(w io.Writer, seed uint64, ob obsPair) {
	weak := uds.WeakXOR{Constant: 0x5EC0DE42}
	v := mustVehicle(seed, nil)
	v.Instrument(ob.tr, ob.reg)
	d := v.AttachDiagnostics(core.DomainInfotainment, weak)

	var seedBytes, keyBytes []byte
	v.Buses[core.DomainInfotainment].Sniff(func(_ sim.Time, f *can.Frame, _ *can.Controller, _ bool) {
		if len(f.Data) >= 7 && f.Data[1] == 0x67 && f.Data[2] == 0x01 {
			seedBytes = append([]byte(nil), f.Data[3:7]...)
		}
		if len(f.Data) >= 7 && f.Data[1] == 0x27 && f.Data[2] == 0x02 {
			keyBytes = append([]byte(nil), f.Data[3:7]...)
		}
	})
	if _, err := v.RunDiag(d.Tester, []byte{uds.SvcSessionControl, uds.SessionExtended}); err != nil {
		fatal(err)
	}
	if err := v.RunUnlock(d.Tester, 1, weak); err != nil {
		fatal(err)
	}
	fmt.Fprintf(w, "workshop unlock observed: seed=%x key=%x\n", seedBytes, keyBytes)
	var c uint32
	for i := 0; i < 4; i++ {
		c = c<<8 | uint32(seedBytes[i]^keyBytes[i])
	}
	derived := uds.WeakXOR{Constant: c - 1}
	fmt.Fprintf(w, "attacker derives constant %#08x offline\n", derived.Constant)

	victim := mustVehicle(seed+1, nil)
	_ = victim.AttachDiagnostics(core.DomainInfotainment, weak)
	intruder := victim.NewIntruderTester(core.DomainInfotainment)
	_, _ = victim.RunDiag(intruder, []byte{uds.SvcSessionControl, uds.SessionExtended})
	if err := victim.RunUnlock(intruder, 1, derived); err == nil {
		fmt.Fprintln(w, "second vehicle of the model line: UNLOCKED with the derived constant")
	} else {
		fmt.Fprintf(w, "second vehicle resisted: %v\n", err)
	}

	hardened := mustVehicle(seed+2, nil)
	var k16 [16]byte
	copy(k16[:], "per-vehicle-key!")
	_ = hardened.SHE.ProvisionKey(she.Key4, k16, she.Flags{KeyUsage: true})
	_ = hardened.AttachDiagnostics(core.DomainInfotainment, uds.SHECMAC{Engine: hardened.SHE, Slot: she.Key4})
	intruder2 := hardened.NewIntruderTester(core.DomainInfotainment)
	_, _ = hardened.RunDiag(intruder2, []byte{uds.SvcSessionControl, uds.SessionExtended})
	if err := hardened.RunUnlock(intruder2, 1, derived); err != nil {
		fmt.Fprintf(w, "SHE-CMAC vehicle resisted the same chain: %v\n", err)
	}
}

func runZonalCompromise(w io.Writer, seed uint64, ob obsPair) {
	v, err := core.NewVehicle(core.Config{
		VIN:   "AUTOSIM-Z4",
		Seed:  seed,
		Zonal: &core.ZonalConfig{Zones: 4},
	})
	if err != nil {
		fatal(err)
	}
	v.Instrument(ob.tr, ob.reg)
	v.Zonal.SetDefaultAction(gateway.Allow) // the weak pre-hardening baseline
	combined := append(workload.PowertrainMatrix(), workload.BodyMatrix()...)
	v.TrainIDS(workload.SyntheticTrace(combined, 10*sim.Second, seed, 0.01))
	v.ArmAutoQuarantine(core.DomainInfotainment)
	v.StartTraffic()

	fmt.Fprintln(w, "zonal topology (Ethernet backbone, one zone controller each):")
	for _, z := range v.Zonal.Zones() {
		locals := strings.Join(z.Locals(), ", ")
		if locals == "" {
			locals = "(no local domains)"
		}
		fmt.Fprintf(w, "  %-4s -> %s\n", z.Name, locals)
	}

	fmt.Fprintln(w, "t=0s      drive starts; zone controllers in permissive (legacy) mode")
	attacker := can.NewController("compromised-headunit")
	v.Buses[core.DomainInfotainment].Attach(attacker)
	var quarantinedAt sim.Time = -1
	v.IDS.OnAlert(func(a ids.Alert) {
		if quarantinedAt < 0 {
			quarantinedAt = a.At
		}
	})
	var stopAtk func()
	v.Kernel.At(2*sim.Second, func() {
		fmt.Fprintln(w, "t=2s      head unit compromised: injecting torque frames at 1 kHz toward the powertrain zone")
		stopAtk = can.PeriodicSender(v.Kernel, attacker, can.Frame{ID: 0x0C0, Data: make([]byte, 8)}, sim.Millisecond, 0)
	})
	_ = v.RunUntil(10 * sim.Second)
	if stopAtk != nil {
		stopAtk()
	}
	v.StopTraffic()

	infoZone, _ := v.Zonal.ZoneOf(core.DomainInfotainment)
	if quarantinedAt >= 0 {
		fmt.Fprintf(w, "t=%-7v IDS alert -> backbone port of zone %s quarantined; local traffic inside it still flows\n",
			quarantinedAt, infoZone.Name)
	}
	fmt.Fprintln(w, "final per-zone controller stats:")
	for _, z := range v.Zonal.Zones() {
		fmt.Fprintf(w, "  %-4s forwarded=%-6d blocked=%-4d dropped-in-quarantine=%-5d quarantined=%v\n",
			z.Name, z.GW.Forwarded.Value, z.GW.Blocked.Value, z.GW.QuarDrops.Value,
			v.Zonal.ZoneQuarantined(z.Name))
	}
	fmt.Fprintf(w, "backbone: frames=%d deliveries=%d\n",
		v.Zonal.BackboneFramesTotal(), v.Zonal.BackboneDeliveriesTotal())
	fmt.Fprintf(w, "IDS: %s\n", v.IDS.Summary())
}

// runFleetCompromise scales the head-unit compromise to a fleet: every
// fifth vehicle of a pooled 2000-vehicle population carries the attacker,
// each vehicle runs its own 7ms containment scenario on the sharded fleet
// driver, and the narrative reports the campaign's fleet-level shape —
// how many reflexes fired, what leaked through before they did, and the
// real wall-clock throughput of the pooled simulation.
//
// The drive runs on the observability plane: -metrics/-prom merge every
// vehicle's registry in index order (so the exposition is byte-identical
// at any -fleetpar), -fleetrate samples flight-recorder traces with
// incident vehicles always kept, and -progress streams wall-clock
// telemetry to stderr where it cannot perturb the deterministic
// narrative.
func runFleetCompromise(w io.Writer, seed uint64, ob obsPair) {
	const n = 2000
	cfg := core.Config{VIN: "AUTOSIM-FLEET", Seed: seed, Zonal: &core.ZonalConfig{Zones: 4}}
	type res struct {
		compromised            bool
		attackThrough, blocked int
		quarantined, isolated  int
	}
	opts := fleet.ObsOptions{
		Metrics:   ob.reg != nil || fleetProm != "",
		TraceRate: fleetRate,
	}
	if ob.tr != nil && (opts.Metrics || opts.TraceRate > 0) {
		// DriveObs instruments each vehicle before the scenario runs; the
		// legacy vehicle-0 -trace hook below would overwrite that wiring.
		fatal(fmt.Errorf("-trace is incompatible with fleet-wide observability; use -fleetrate/-fleettrace"))
	}
	if fleetProgress {
		opts.Observer = fleet.NewProgressWriter(os.Stderr, n)
	}
	fmt.Fprintf(w, "fleet: %d vehicles, 4-zone E/E topology, every 5th head unit compromised\n", n)
	start := time.Now()
	results, obsRes, err := fleet.DriveObs(context.Background(), fleet.Driver{Cfg: cfg, N: n, Workers: fleetPar}, opts,
		func(idx int, v *core.Vehicle) (res, error) {
			r := res{compromised: idx%5 == 0}
			k := v.Kernel
			// Vehicle 0 stands in for the fleet on -trace: Reset detaches
			// the tracer, so pooled reuse by later indices stays silent.
			// The registry keeps fleet-level gauges only (set after the run).
			if idx == 0 && ob.tr != nil {
				v.Instrument(ob.tr, nil)
			}
			v.Zonal.SetRules([]*gateway.Rule{{
				Name: "legacy-open", From: core.DomainInfotainment, To: []string{core.DomainPowertrain},
				IDLo: 0, IDHi: uint32(can.MaxStandardID), Action: gateway.Allow,
			}})
			attackSent := 0
			if r.compromised {
				mal := can.NewController("headunit")
				v.Buses[core.DomainInfotainment].Attach(mal)
				st := k.Stream("fleet-phase")
				k.Every(st.Duration(sim.Millisecond, 3*sim.Millisecond), sim.Millisecond, func() {
					attackSent++
					_ = mal.Send(can.Frame{ID: 0x0C0, Data: []byte{0xFF, 0xFF}}, nil)
				})
			}
			mon := can.NewController("monitor")
			v.Buses[core.DomainPowertrain].Attach(mon)
			mon.OnReceive(func(_ sim.Time, f *can.Frame, _ *can.Controller) {
				if f.ID != 0x0C0 {
					return
				}
				r.attackThrough++
				if r.attackThrough >= 3 && r.quarantined == 0 {
					_ = v.Zonal.QuarantineZoneOf(core.DomainInfotainment)
					r.quarantined = 1
					z, _ := v.Zonal.ZoneOf(core.DomainInfotainment)
					for _, name := range v.Zonal.Domains() {
						if zz, ok := v.Zonal.ZoneOf(name); ok && zz == z {
							r.isolated++
						}
					}
				}
			})
			if err := k.RunUntil(7 * sim.Millisecond); err != nil {
				return r, err
			}
			r.blocked = attackSent - r.attackThrough
			return r, nil
		})
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)
	// Wall-clock throughput goes to stderr: the narrative on w must stay
	// byte-deterministic so replicated runs stay identical at any -par.
	fmt.Fprintf(os.Stderr, "autosim: simulated %d vehicles in %v (%.0f vehicles/sec)\n",
		n, elapsed.Round(time.Millisecond), float64(n)/elapsed.Seconds())

	var compromised, quarantined, through, blocked, isolated int
	for _, r := range results {
		if !r.compromised {
			continue
		}
		compromised++
		quarantined += r.quarantined
		through += r.attackThrough
		blocked += r.blocked
		isolated += r.isolated
	}
	fmt.Fprintf(w, "campaign: %d compromised vehicles; %d quarantine reflexes fired\n", compromised, quarantined)
	fmt.Fprintf(w, "containment: %d attack frames reached powertrains fleet-wide, %d blocked after quarantine\n",
		through, blocked)
	if quarantined > 0 {
		fmt.Fprintf(w, "blast radius: %.1f domains isolated per quarantined vehicle\n",
			float64(isolated)/float64(quarantined))
	}
	if opts.TraceRate > 0 {
		// Deterministic selection: same set at any -fleetpar.
		fmt.Fprintf(w, "flight recorder: %d traces kept (%d incident vehicles)\n",
			len(obsRes.Traces), obsRes.Stats.TracesInteresting)
	}
	if opts.Metrics {
		reg := obsRes.Registry
		// Campaign-level gauges ride in the same registry as the merged
		// per-vehicle metrics; both are pure functions of (seed, n).
		reg.Gauge("fleet/quarantined_fraction").Set(float64(quarantined) / float64(n))
		reg.Gauge("fleet/attack_through_per_compromised").Set(float64(through) / float64(compromised))
		if ob.reg != nil {
			if err := ob.reg.Merge(reg); err != nil {
				fatal(err)
			}
		}
		if fleetProm != "" {
			if err := writeProm(fleetProm, reg); err != nil {
				fatal(err)
			}
		}
	}
	if fleetTraceDir != "" {
		paths, err := obsRes.WriteChromeTraces(fleetTraceDir)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(w, "flight recorder: %d Chrome traces under %s\n", len(paths), fleetTraceDir)
	}
}

// writeProm writes reg as a Prometheus text exposition to path.
func writeProm(path string, reg *obs.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WritePrometheus(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "autosim: %v\n", err)
	os.Exit(1)
}
