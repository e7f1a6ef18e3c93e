package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"autosec/internal/can"
	"autosec/internal/netif"
	"autosec/internal/obs"
	"autosec/internal/sim"
)

// kpRandomConfig draws a per-zone-kernel build from the zonal
// extensibility envelope: zone counts, per-zone local domains, extra
// domains in zone 0, MAC widths and the policy plane.
func kpRandomConfig(r *eqRng, trial int) Config {
	cfg := Config{
		VIN:     fmt.Sprintf("KP-%02d", trial),
		MACBits: []int{0, 24, 32}[r.intn(3)],
		Zonal:   &ZonalConfig{Zones: 2 + r.intn(4), PerZoneKernels: true},
	}
	if r.chance(40) {
		cfg.PolicyKey = []byte("kp-policy-authority-key")
	}
	if r.chance(50) {
		cfg.Zonal.LocalDomains = []DomainSpec{{Name: "body", Kind: netif.CAN}}
	}
	if r.chance(30) {
		cfg.ExtraDomains = []DomainSpec{{Name: "extra0", Kind: netif.CAN}}
	}
	return cfg
}

// kpScenario drives one per-zone-kernel vehicle through a randomized
// scenario and returns its fingerprint. Every scheduling choice follows
// the per-zone-kernel rules: domain traffic goes to KernelFor(domain),
// shared subsystems (SHE, audit) are only touched from member 0's kernel
// or between runs, and cross-zone containment rides
// RequestZoneQuarantine.
func kpScenario(t *testing.T, v *Vehicle, scenSeed uint64) string {
	t.Helper()
	r := &eqRng{state: scenSeed}

	// One ring for the whole vehicle, sized for all its members.
	tr := obs.NewTracer(v.Group.Members() << 12)
	reg := obs.NewRegistry()
	v.Instrument(tr, reg)

	v.Zonal.SetRules(eqRandomRules(r))

	// Per-domain periodic traffic on each domain's owning kernel, phases
	// drawn from that kernel's own seeded stream.
	for i, dom := range []string{DomainPowertrain, DomainChassis, DomainInfotainment} {
		if !r.chance(80) {
			continue
		}
		k := v.KernelFor(dom)
		st := k.Stream("kp-phase")
		c := can.NewController(fmt.Sprintf("kp-ecu%d", i))
		v.Buses[dom].Attach(c)
		id := can.ID(0x100 + r.intn(0x300))
		payload := byte(r.intn(256))
		period := sim.Duration(200+r.intn(800)) * sim.Microsecond
		k.Every(st.Duration(100*sim.Microsecond, sim.Millisecond), period, func() {
			_ = c.Send(can.Frame{ID: id, Data: []byte{payload, 0x01}}, nil)
		})
	}

	// Background workload matrices sometimes (powertrain on member 0,
	// infotainment on the last member).
	if r.chance(50) {
		v.StartTraffic()
	}

	// A flood on the infotainment zone sometimes: deny/rate verdicts from
	// a non-zero member exercise the audit staging merge.
	if r.chance(60) {
		k := v.KernelFor(DomainInfotainment)
		c := can.NewController("kp-mal")
		v.Buses[DomainInfotainment].Attach(c)
		k.Every(sim.Millisecond, 50*sim.Microsecond, func() {
			_ = c.Send(can.Frame{ID: 0x7FF, Data: []byte{0xFF}}, nil)
		})
	}

	// A cross-zone containment reflex from member 0 sometimes.
	if r.chance(50) {
		v.Kernel.At(2*sim.Millisecond, func() {
			_ = v.Zonal.RequestZoneQuarantine(DomainPowertrain, DomainInfotainment)
		})
	}

	// Authenticated CAN on the powertrain: the SHE is shared state, so
	// only member 0's kernel may drive it mid-run.
	if v.MACBits > 0 {
		if err := v.ProvisionMACKey([16]byte{9, 8, 7}); err != nil {
			t.Fatalf("provision MAC key: %v", err)
		}
		c := can.NewController("kp-auth")
		v.Buses[DomainPowertrain].Attach(c)
		v.Kernel.At(sim.Millisecond, func() {
			_ = v.AuthenticatedSend(c, 0x101, []byte{0xAA})
			_, _ = v.VerifyAuthenticated(&can.Frame{ID: 0x102, Data: []byte{0xBB, 0, 0, 0, 0, 0}})
		})
	}

	if err := v.RunUntil(5 * sim.Millisecond); err != nil {
		t.Fatalf("run: %v", err)
	}
	v.StopTraffic()
	return kpFingerprint(v, tr, reg)
}

// kpFingerprint serializes the trace bytes and the ring's dropped count,
// metrics, the audit chain, and per-member clocks and step counts.
func kpFingerprint(v *Vehicle, tr *obs.Tracer, reg *obs.Registry) string {
	var b strings.Builder
	fmt.Fprintf(&b, "group: members=%d steps=%d pending=%d\n", v.Group.Members(), v.Group.Steps(), v.Group.Pending())
	for i := 0; i < v.Group.Members(); i++ {
		k := v.Group.Kernel(i)
		fmt.Fprintf(&b, "member %d: now=%d steps=%d\n", i, k.Now(), k.Steps())
	}
	fmt.Fprintf(&b, "auth: macbits=%d failures=%d\n", v.MACBits, v.AuthFailures.Value)
	fmt.Fprintf(&b, "backbone: frames=%d deliveries=%d\n",
		v.Zonal.BackboneFramesTotal(), v.Zonal.BackboneDeliveriesTotal())

	var trace bytes.Buffer
	if err := tr.WriteChromeTrace(&trace); err != nil {
		fmt.Fprintf(&b, "trace error: %v\n", err)
	}
	fmt.Fprintf(&b, "trace: %d bytes, %d dropped\n%s\n", trace.Len(), tr.Dropped(), trace.String())

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
	return b.String()
}

// TestKernelParResetEquivalence extends the pooled-vehicle
// reset-equivalence property to per-zone-kernel builds: a dirtied and
// Reset vehicle must replay a scenario byte-identically to a fresh build
// — including the group clocks, undelivered inter-kernel messages
// (dropped by Reset) and the audit staging buffers.
func TestKernelParResetEquivalence(t *testing.T) {
	trials := 6
	if testing.Short() {
		trials = 2
	}
	r := &eqRng{state: 0xC5C5}
	for trial := 0; trial < trials; trial++ {
		cfg := kpRandomConfig(r, trial)
		runSeed := r.next()
		scenSeed := r.next()
		dirtySeed := r.next()
		scenDirty := r.next()
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			fcfg := cfg
			fcfg.Seed = runSeed
			fresh, err := NewVehicle(fcfg)
			if err != nil {
				t.Fatalf("fresh build: %v", err)
			}
			want := kpScenario(t, fresh, scenSeed)

			pool := NewVehiclePool(cfg)
			dirty, err := pool.Acquire(dirtySeed)
			if err != nil {
				t.Fatalf("pool build: %v", err)
			}
			_ = kpScenario(t, dirty, scenDirty)
			pool.Release(dirty)
			reused, err := pool.Acquire(runSeed)
			if err != nil {
				t.Fatalf("pool reuse: %v", err)
			}
			if reused != dirty {
				t.Fatal("pool did not reuse the released vehicle")
			}
			got := kpScenario(t, reused, scenSeed)
			if got != want {
				t.Fatalf("reset per-zone-kernel vehicle diverged from fresh build (cfg %+v):\n%s",
					cfg, eqFirstDiff(want, got))
			}
		})
	}
}
