package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"autosec/internal/can"
	"autosec/internal/ethernet"
	"autosec/internal/flexray"
	"autosec/internal/gateway"
	"autosec/internal/lin"
	"autosec/internal/netif"
	"autosec/internal/obs"
	"autosec/internal/sim"
	"autosec/internal/workload"
)

// eqRng is a self-contained splitmix64 for the property generator, so the
// test's random choices never touch the vehicles' own seeded streams.
type eqRng struct{ state uint64 }

func (r *eqRng) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *eqRng) intn(n int) int      { return int(r.next() % uint64(n)) }
func (r *eqRng) chance(pct int) bool { return r.intn(100) < pct }

// eqRandomConfig draws a build configuration from the full extensibility
// envelope: central or zonal topology, mixed-media extra domains, MAC
// truncation widths and an optional policy plane.
func eqRandomConfig(r *eqRng, trial int) Config {
	cfg := Config{
		VIN:     fmt.Sprintf("EQ-%02d", trial),
		MACBits: []int{0, 0, 24, 32}[r.intn(4)],
	}
	if r.chance(40) {
		cfg.PolicyKey = []byte("eq-policy-authority-key")
	}
	kinds := []netif.Kind{netif.CAN, netif.LIN, netif.FlexRay, netif.Ethernet}
	for i, n := 0, r.intn(3); i < n; i++ {
		cfg.ExtraDomains = append(cfg.ExtraDomains, DomainSpec{
			Name: fmt.Sprintf("extra%d", i),
			Kind: kinds[r.intn(len(kinds))],
		})
	}
	if r.chance(50) {
		z := &ZonalConfig{Zones: 2 + r.intn(3)}
		if r.chance(50) {
			z.LocalDomains = []DomainSpec{{Name: "body", Kind: netif.CAN}}
		}
		cfg.Zonal = z
	}
	// Detection-plane envelope: nil keeps the historical default; an
	// explicit config widens the taps to every extra domain, and the
	// medium-aware draw swaps in the semantic suite, whose registry
	// routing order Reset must rebuild exactly.
	switch r.intn(3) {
	case 1:
		cfg.IDS = &IDSConfig{}
	case 2:
		cfg.IDS = &IDSConfig{MediumAware: true}
	}
	return cfg
}

// eqScenario dirties one vehicle with a randomized scenario derived
// entirely from scenSeed, then returns the fingerprint. Every choice the
// scenario makes comes either from its private rng (so the same scenSeed
// replays the same script on any vehicle) or from the vehicle's own
// kernel streams (so the vehicle seed is load-bearing too).
func eqScenario(t *testing.T, v *Vehicle, scenSeed uint64) string {
	t.Helper()
	r := &eqRng{state: scenSeed}
	k := v.Kernel

	tr := obs.NewTracer(1 << 12)
	reg := obs.NewRegistry()
	v.Instrument(tr, reg)

	// A trained IDS half the time, so trained detector state that
	// survives Reset into an untrained scenario shows up as divergent
	// alerts.
	if r.chance(50) {
		v.TrainIDS(workload.SyntheticTrace(workload.PowertrainMatrix(), sim.Second, r.next(), 0.01))
	}

	// Policy-layer churn: a randomized cross-domain rule set.
	rules := eqRandomRules(r)
	if v.Zonal != nil {
		v.Zonal.SetRules(rules)
	} else {
		v.Gateway.SetRules(rules)
	}

	// Architecture churn: install a scenario-local implementation and
	// sometimes deprecate it again — both append to the upgrade log, so
	// this drives Reset's restoreArch down the slow (full-rewind) path.
	if r.chance(60) {
		layer := Layer(r.intn(5))
		if err := v.Arch.Install(layer, Implementation{Name: "eq-impl", Version: 1}); err != nil {
			t.Fatalf("arch install: %v", err)
		}
		if r.chance(50) {
			if err := v.Arch.Deprecate(layer, "eq-impl"); err != nil {
				t.Fatalf("arch deprecate: %v", err)
			}
		}
	}

	// Traffic on the standard domains, phases drawn from the vehicle's
	// seeded kernel stream.
	st := k.Stream("eq-phase")
	for i, dom := range []string{DomainPowertrain, DomainChassis, DomainInfotainment} {
		if !r.chance(70) {
			continue
		}
		c := can.NewController(fmt.Sprintf("eq-ecu%d", i))
		v.Buses[dom].Attach(c)
		id := can.ID(0x100 + r.intn(0x300))
		payload := byte(r.intn(256))
		period := sim.Duration(200+r.intn(800)) * sim.Microsecond
		k.Every(st.Duration(100*sim.Microsecond, sim.Millisecond), period, func() {
			_ = c.Send(can.Frame{ID: id, Data: []byte{payload, 0x01}}, nil)
		})
	}

	// Mixed-media traffic on the extra domains. On builds with an
	// explicit IDS config the widened taps observe these records, and on
	// medium-aware builds the semantic detectors alert on the scripted
	// violations — alerts land in the audit chain the fingerprint hashes,
	// so any detector state surviving Reset shows up as a divergence.
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("extra%d", i)
		switch {
		case v.LINClusters[name] != nil:
			cl := v.LINClusters[name]
			slave := lin.NewSlave("eq-lin-slave")
			if err := slave.Publish(0x10, func(at sim.Time) []byte { return []byte{0x10, 0xEF} }); err != nil {
				t.Fatalf("lin publish: %v", err)
			}
			cl.AddSlave(slave)
			cl.SetSchedule([]lin.ScheduleEntry{{ID: 0x10, Delay: sim.Millisecond}})
			if err := cl.Start(); err != nil {
				t.Fatalf("lin start: %v", err)
			}
			if r.chance(50) {
				at := 2*sim.Millisecond + sim.Duration(r.intn(500))*sim.Microsecond
				k.At(at, func() {
					_ = cl.SendSporadic("eq-rogue", 0x2A, []byte{0xBA, 0xD0})
				})
			}
		case v.FlexRayClusters[name] != nil:
			fr := v.FlexRayClusters[name]
			slot := flexray.SlotID(3 + r.intn(4))
			if err := fr.AssignStatic(slot, "eq-fr-ecu", func(cycle int) []byte {
				return []byte{byte(cycle), 0x00}
			}); err != nil {
				t.Fatalf("flexray assign: %v", err)
			}
			if err := fr.Start(); err != nil {
				t.Fatalf("flexray start: %v", err)
			}
			if r.chance(50) {
				rogue := flexray.SlotID(20 + r.intn(8))
				k.At(sim.Millisecond, func() {
					_ = fr.Intrude(rogue, "eq-fr-rogue", func(cycle int) []byte { return []byte{0xEE, 0x0E} })
				})
			}
		case v.Switches[name] != nil:
			sw := v.Switches[name]
			h := ethernet.NewHost(fmt.Sprintf("eq-eth-host%d", i), ethernet.LocalMAC(0xE0+uint32(i)))
			sw.Connect(h, 1)
			payload := []byte{byte(r.intn(256)), 0x01}
			k.Every(sim.Duration(100+r.intn(400))*sim.Microsecond, sim.Millisecond, func() {
				_ = h.Send(ethernet.Frame{Dst: ethernet.Broadcast, EtherType: 0x88B6, Payload: payload})
			})
		case v.Buses[name] != nil:
			c := can.NewController(fmt.Sprintf("eq-extra-can%d", i))
			v.Buses[name].Attach(c)
			id := can.ID(0x400 + r.intn(0x100))
			period := sim.Duration(300+r.intn(700)) * sim.Microsecond
			k.Every(500*sim.Microsecond, period, func() {
				_ = c.Send(can.Frame{ID: id, Data: []byte{0xEC}}, nil)
			})
		}
	}

	// Background workload matrices sometimes.
	if r.chance(40) {
		v.StartTraffic()
	}

	// A mid-run quarantine reflex sometimes.
	if r.chance(50) {
		k.At(2*sim.Millisecond, func() {
			if v.Zonal != nil {
				_ = v.Zonal.QuarantineZoneOf(DomainInfotainment)
			} else {
				_ = v.Gateway.Quarantine(DomainInfotainment)
			}
		})
	}

	// Authenticated CAN when the build has a MAC width: provision the SHE
	// key, send a valid frame and verify a garbage one (bumping the
	// auth-failure counter Reset must rewind).
	if v.MACBits > 0 {
		if err := v.ProvisionMACKey([16]byte{1, 2, 3, 4, 5}); err != nil {
			t.Fatalf("provision MAC key: %v", err)
		}
		c := can.NewController("eq-auth")
		v.Buses[DomainPowertrain].Attach(c)
		k.At(sim.Millisecond, func() {
			_ = v.AuthenticatedSend(c, 0x101, []byte{0xAA})
			_, _ = v.VerifyAuthenticated(&can.Frame{ID: 0x102, Data: []byte{0xBB, 0, 0, 0, 0, 0}})
		})
	}

	if err := k.RunUntil(5 * sim.Millisecond); err != nil {
		t.Fatalf("run: %v", err)
	}
	v.StopTraffic()
	return eqFingerprint(v, tr, reg)
}

func eqRandomRules(r *eqRng) []*gateway.Rule {
	doms := []string{DomainPowertrain, DomainChassis, DomainInfotainment}
	var rules []*gateway.Rule
	for i, n := 0, 1+r.intn(3); i < n; i++ {
		from := doms[r.intn(len(doms))]
		to := doms[r.intn(len(doms))]
		rule := &gateway.Rule{
			Name:   fmt.Sprintf("eq-rule%d", i),
			From:   from,
			IDLo:   0,
			IDHi:   uint32(0x200 + r.intn(0x200)),
			Action: gateway.Allow,
		}
		if to != from {
			rule.To = []string{to}
		}
		if r.chance(30) {
			rule.Action = gateway.Deny
		}
		rules = append(rules, rule)
	}
	return rules
}

// eqFingerprint serializes everything the issue's equivalence clause
// names: trace bytes, metrics, audit verdicts — plus the kernel clock and
// the live auth state.
func eqFingerprint(v *Vehicle, tr *obs.Tracer, reg *obs.Registry) string {
	var b strings.Builder
	fmt.Fprintf(&b, "kernel: now=%d steps=%d\n", v.Kernel.Now(), v.Kernel.Steps())
	fmt.Fprintf(&b, "auth: macbits=%d failures=%d\n", v.MACBits, v.AuthFailures.Value)
	fmt.Fprintf(&b, "ids: detectors=%v observed=%d\n", v.IDS.Detectors(), v.IDS.Observed())
	for _, a := range v.IDS.Alerts {
		fmt.Fprintf(&b, "ids alert: %s\n", a.String())
	}

	var trace bytes.Buffer
	if err := tr.WriteChromeTrace(&trace); err != nil {
		fmt.Fprintf(&b, "trace error: %v\n", err)
	}
	fmt.Fprintf(&b, "trace: %d bytes\n%s\n", trace.Len(), trace.String())

	for _, m := range reg.Snapshot() {
		fmt.Fprintf(&b, "metric: %s %s = %s\n", m.Kind, m.Key, obs.FormatValue(m.Value))
	}

	for _, e := range v.Audit.Entries() {
		h := e.Hash()
		fmt.Fprintf(&b, "audit: %d %s %s %x\n", e.At, e.Source, e.Event, h[:8])
	}
	if err := v.Audit.VerifyChain(); err != nil {
		fmt.Fprintf(&b, "audit chain: %v\n", err)
	}
	fmt.Fprintf(&b, "arch log: %v\n", v.Arch.UpgradeLog)
	return b.String()
}

// TestResetEquivalence is the reset-equivalence harness: across
// randomized configs (central and zonal, mixed media, MAC widths, policy
// plane on and off) a pooled vehicle that was dirtied by one scenario and
// then Reset must replay a second scenario byte-identically to a fresh
// NewVehicle build — traces, metrics and audit verdicts included.
func TestResetEquivalence(t *testing.T) {
	trials := 24
	if testing.Short() {
		trials = 6
	}
	r := &eqRng{state: 0xE0E0}
	for trial := 0; trial < trials; trial++ {
		cfg := eqRandomConfig(r, trial)
		runSeed := r.next()
		scenSeed := r.next()
		dirtySeed := r.next()
		scenDirty := r.next()
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			fcfg := cfg
			fcfg.Seed = runSeed
			fresh, err := NewVehicle(fcfg)
			if err != nil {
				t.Fatalf("fresh build (%+v): %v", fcfg, err)
			}
			want := eqScenario(t, fresh, scenSeed)

			pool := NewVehiclePool(cfg)
			dirty, err := pool.Acquire(dirtySeed)
			if err != nil {
				t.Fatalf("pool build: %v", err)
			}
			_ = eqScenario(t, dirty, scenDirty)
			pool.Release(dirty)
			reused, err := pool.Acquire(runSeed)
			if err != nil {
				t.Fatalf("pool reuse: %v", err)
			}
			if reused != dirty {
				t.Fatal("pool did not reuse the released vehicle")
			}
			if pool.Hits != 1 || pool.Misses != 1 {
				t.Fatalf("pool counters: hits=%d misses=%d, want 1/1", pool.Hits, pool.Misses)
			}
			got := eqScenario(t, reused, scenSeed)

			if got != want {
				t.Fatalf("reset vehicle diverged from fresh build (cfg %+v):\n%s",
					cfg, eqFirstDiff(want, got))
			}
		})
	}
}

// eqFirstDiff renders the first diverging line of two fingerprints, with
// a little context — a full fingerprint dump is unreadable.
func eqFirstDiff(want, got string) string {
	w := strings.Split(want, "\n")
	g := strings.Split(got, "\n")
	n := len(w)
	if len(g) < n {
		n = len(g)
	}
	for i := 0; i < n; i++ {
		if w[i] != g[i] {
			lo := i - 2
			if lo < 0 {
				lo = 0
			}
			return fmt.Sprintf("line %d:\n  fresh: %s\n  reset: %s\n  context: %s",
				i+1, w[i], g[i], strings.Join(w[lo:i], " | "))
		}
	}
	return fmt.Sprintf("lengths differ: fresh %d lines, reset %d lines", len(w), len(g))
}
