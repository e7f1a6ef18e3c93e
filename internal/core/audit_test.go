package core

import (
	"strings"
	"testing"

	"autosec/internal/can"
	"autosec/internal/gateway"
	"autosec/internal/ids"
	"autosec/internal/netif"
	"autosec/internal/sim"
	"autosec/internal/workload"
)

// The forensic chain: an attack is attempted, the gateway and IDS record
// it in the SHE-sealed audit log, and post-incident tampering is caught.
func TestAuditLogRecordsAttackAndResistsTampering(t *testing.T) {
	v := newVehicle(t, Config{})
	v.TrainIDS(workload.SyntheticTrace(workload.PowertrainMatrix(), 10*sim.Second, 1, 0.01))

	// An attacker in the infotainment domain probes the gateway.
	attacker := can.NewController("probe")
	v.Buses[DomainInfotainment].Attach(attacker)
	for i := 0; i < 5; i++ {
		_ = attacker.Send(can.Frame{ID: can.ID(0x700 + i)}, nil)
	}
	_ = v.Kernel.Run()

	if v.Audit.Len() < 5 {
		t.Fatalf("audit entries=%d, want ≥5 gateway denials", v.Audit.Len())
	}
	found := false
	for _, e := range v.Audit.Entries() {
		if e.Source == "gateway" && strings.Contains(e.Event, "deny") {
			found = true
		}
	}
	if !found {
		t.Fatal("no gateway denial recorded")
	}

	// Seal the log (a periodic maintenance action).
	if err := v.Audit.SealNow(v.Kernel.Now()); err != nil {
		t.Fatal(err)
	}
	if err := v.Audit.VerifyChain(); err != nil {
		t.Fatal(err)
	}
	if err := v.Audit.VerifySeals(); err != nil {
		t.Fatal(err)
	}

	// The attacker later gains code execution and wipes their traces.
	v.Audit.Truncate(0)
	if err := v.Audit.VerifySeals(); err == nil {
		t.Fatal("log wipe not detected by seals")
	}
}

func TestAuditLogRecordsIDSAlerts(t *testing.T) {
	v := newVehicle(t, Config{})
	v.Gateway.DefaultAction = 1 // permissive so the flood reaches the IDS
	combined := append(workload.PowertrainMatrix(), workload.BodyMatrix()...)
	v.TrainIDS(workload.SyntheticTrace(combined, 10*sim.Second, 1, 0.01))
	v.StartTraffic()
	attacker := can.NewController("flooder")
	v.Buses[DomainPowertrain].Attach(attacker)
	stop := can.PeriodicSender(v.Kernel, attacker, can.Frame{ID: 0x0C0, Data: make([]byte, 8)}, sim.Millisecond, 0)
	_ = v.Kernel.RunUntil(2 * sim.Second)
	stop()
	v.StopTraffic()

	idsEvents := 0
	for _, e := range v.Audit.Entries() {
		if e.Source == "ids" {
			idsEvents++
		}
	}
	if idsEvents == 0 {
		t.Fatal("IDS alerts not mirrored into the audit log")
	}
	if err := v.Audit.VerifyChain(); err != nil {
		t.Fatal(err)
	}
}

// TestAlertAuditAllocs pins the alert→audit path of the canonical fleet
// vehicle: once the alert history and the audit log have warm capacity,
// one record the untrained baseline IDS flags ("unknown identifier")
// costs the audit string the log keeps — the spec detector appends into
// the engine's alert history, and nothing is spent on rendering,
// notification or hashing.
func TestAlertAuditAllocs(t *testing.T) {
	pool := NewVehiclePool(Config{VIN: "ALERT-ALLOC", Seed: 1, Zonal: &ZonalConfig{
		Zones:        2,
		LocalDomains: []DomainSpec{{Name: "body", Kind: netif.CAN}},
	}})
	rec := netif.Record{Frame: netif.Frame{Medium: netif.CAN, ID: 0x123, Payload: []byte{1, 2}}}
	observe := func(v *Vehicle) {
		rec.At += 500 * sim.Microsecond
		if n := len(v.IDS.Observe(rec)); n != 1 {
			t.Fatalf("alerts per record = %d, want 1", n)
		}
	}
	// Warm-up grows the alert history and the audit log past the measured
	// run; the pooled reset keeps their capacity.
	v, err := pool.Acquire(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		observe(v)
	}
	pool.Release(v)
	if v, err = pool.Acquire(2); err != nil {
		t.Fatal(err)
	}
	rec.At = 0
	observe(v)
	if allocs := testing.AllocsPerRun(200, func() { observe(v) }); allocs > 1 {
		t.Fatalf("allocs per alerting record = %v, want <= 1", allocs)
	}
	// The first entry must survive every later render into the reused
	// buffer.
	if got, want := v.Audit.Entries()[0].Event, "[500.000us] spec id=0x123: unknown identifier"; got != want {
		t.Fatalf("audit entry %q, want %q", got, want)
	}
	pool.Release(v)
}

// TestPerZoneAuditMergesAtOwnBarrier: on a per-zone-kernel vehicle a
// staged audit entry reaches the sealed log at the barrier closing the
// round that staged it, even when it is the only entry of the run — no
// later entry may be needed to flush it. One case stages a zone
// gateway's denial on member 1, the other an IDS alert on member 0.
func TestPerZoneAuditMergesAtOwnBarrier(t *testing.T) {
	for _, tc := range []struct {
		name   string
		domain string
		rules  []*gateway.Rule
	}{
		// No rule matches, so the infotainment zone denies the frame.
		{"gateway", DomainInfotainment, nil},
		// The frame is allowed, but the untrained IDS flags its ID.
		{"ids", DomainPowertrain, []*gateway.Rule{{
			Name: "pt-chassis", From: DomainPowertrain, To: []string{DomainChassis},
			IDLo: 0x123, IDHi: 0x123, Action: gateway.Allow,
		}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v := newVehicle(t, Config{Zonal: &ZonalConfig{Zones: 2, PerZoneKernels: true}})
			v.Zonal.SetRules(tc.rules)
			staged := sim.Never // when the run's one auditable event happened
			v.Zonal.Observe(func(at sim.Time, _, _ string, _ *netif.Frame, verdict string) {
				if auditableVerdict(verdict) {
					staged = at
				}
			})
			v.IDS.OnAlert(func(a ids.Alert) { staged = a.At })
			inLog := -1 // log length at the first barrier past the event
			v.Group.AtBarrier(func(limit sim.Time) {
				if inLog < 0 && limit > staged {
					inLog = v.Audit.Len()
				}
			})
			node := can.NewController("probe")
			v.Buses[tc.domain].Attach(node)
			v.KernelFor(tc.domain).At(sim.Millisecond, func() {
				_ = node.Send(can.Frame{ID: 0x123, Data: []byte{1, 2}}, nil)
			})
			if err := v.RunUntil(10 * sim.Millisecond); err != nil {
				t.Fatal(err)
			}

			entries := v.Audit.Entries()
			if len(entries) != 1 || entries[0].Source != tc.name || entries[0].At != staged {
				t.Fatalf("audit log %+v, want one %s entry at %v", entries, tc.name, staged)
			}
			if inLog != 1 {
				t.Fatalf("log held %d entries at the event's barrier, want 1", inLog)
			}
			if err := v.Audit.VerifyChain(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
