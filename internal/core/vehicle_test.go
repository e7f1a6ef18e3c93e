package core

import (
	"strings"
	"testing"

	"autosec/internal/can"
	"autosec/internal/netif"
	"autosec/internal/policy"
	"autosec/internal/sim"
	"autosec/internal/workload"
)

func newVehicle(t *testing.T, cfg Config) *Vehicle {
	t.Helper()
	if cfg.VIN == "" {
		cfg.VIN = "TEST-VIN-001"
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	v, err := NewVehicle(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestNewVehicleComposition(t *testing.T) {
	v := newVehicle(t, Config{})
	if len(v.Buses) != 3 {
		t.Fatalf("buses=%d", len(v.Buses))
	}
	inv := v.Arch.Inventory()
	if len(inv["secure-gateway"]) == 0 || len(inv["secure-processing"]) != 2 || len(inv["access-security"]) == 0 {
		t.Fatalf("inventory=%v", inv)
	}
	if !v.Arch.SecurityCurrent() {
		t.Fatal("fresh vehicle not security-current")
	}
}

func TestNewVehicleNeedsVIN(t *testing.T) {
	if _, err := NewVehicle(Config{}); err == nil {
		t.Fatal("empty VIN accepted")
	}
}

func TestTrafficRunsOnDomains(t *testing.T) {
	v := newVehicle(t, Config{})
	ptTrace := netif.Recorder(can.Netif(v.Buses[DomainPowertrain]))
	v.StartTraffic()
	_ = v.Kernel.RunUntil(2 * sim.Second)
	v.StopTraffic()
	if ptTrace.Len() < 300 {
		t.Fatalf("powertrain frames=%d", ptTrace.Len())
	}
}

// The E8 chain: a compromised infotainment ECU floods the powertrain; the
// gateway's deny-by-default stops it; with a permissive gateway it gets
// through; the IDS sees it and can trigger quarantine.
func TestCompromisedDomainContainment(t *testing.T) {
	v := newVehicle(t, Config{})
	attacker := can.NewController("compromised-headunit")
	v.Buses[DomainInfotainment].Attach(attacker)

	ptSeen := 0
	ptECU := can.NewController("engine-monitor")
	v.Buses[DomainPowertrain].Attach(ptECU)
	ptECU.OnReceive(func(_ sim.Time, f *can.Frame, _ *can.Controller) {
		if f.ID == 0x0C0 {
			ptSeen++
		}
	})

	// Deny-by-default: injection never crosses.
	stop := can.PeriodicSender(v.Kernel, attacker, can.Frame{ID: 0x0C0, Data: []byte{0xFF, 0xFF}}, 10*sim.Millisecond, 0)
	_ = v.Kernel.RunUntil(sim.Second)
	stop()
	if ptSeen != 0 {
		t.Fatalf("deny-by-default leaked %d frames", ptSeen)
	}
	if v.Gateway.Blocked.Value == 0 {
		t.Fatal("gateway blocked nothing")
	}
}

func TestAutoQuarantineOnIDSAlert(t *testing.T) {
	v := newVehicle(t, Config{})
	// Permissive gateway (the weak baseline) so injected traffic reaches
	// the powertrain and the IDS.
	v.Gateway.DefaultAction = 1 // gateway.Allow
	// Train the IDS on clean synthetic traffic.
	v.TrainIDS(workload.SyntheticTrace(workload.PowertrainMatrix(), 10*sim.Second, 1, 0.01))
	v.ArmAutoQuarantine(DomainInfotainment)

	v.StartTraffic()
	attacker := can.NewController("compromised-headunit")
	v.Buses[DomainInfotainment].Attach(attacker)
	stop := can.PeriodicSender(v.Kernel, attacker, can.Frame{ID: 0x0C0, Data: make([]byte, 8)}, sim.Millisecond, 0)
	_ = v.Kernel.RunUntil(3 * sim.Second)
	stop()
	v.StopTraffic()

	if len(v.IDS.Alerts) == 0 {
		t.Fatal("IDS raised no alerts under flood")
	}
	if !v.Gateway.Quarantined(DomainInfotainment) {
		t.Fatal("quarantine reflex did not fire")
	}
}

func TestAuthenticatedCANRoundTrip(t *testing.T) {
	v := newVehicle(t, Config{MACBits: 32})
	var key [16]byte
	copy(key[:], "ivn-auth-key-001")
	if err := v.ProvisionMACKey(key); err != nil {
		t.Fatal(err)
	}
	tx := can.NewController("tx")
	rx := can.NewController("rx")
	v.Buses[DomainChassis].Attach(tx)
	v.Buses[DomainChassis].Attach(rx)

	var got []byte
	var authErr error
	rx.OnReceive(func(_ sim.Time, f *can.Frame, _ *can.Controller) {
		got, authErr = v.VerifyAuthenticated(f)
	})
	if err := v.AuthenticatedSend(tx, 0x123, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	_ = v.Kernel.Run()
	if authErr != nil {
		t.Fatal(authErr)
	}
	if len(got) != 4 || got[0] != 1 {
		t.Fatalf("payload=%v", got)
	}
}

func TestAuthenticatedCANRejectsForgery(t *testing.T) {
	v := newVehicle(t, Config{MACBits: 32})
	var key [16]byte
	copy(key[:], "ivn-auth-key-001")
	_ = v.ProvisionMACKey(key)
	tx := can.NewController("attacker")
	rx := can.NewController("rx")
	v.Buses[DomainChassis].Attach(tx)
	v.Buses[DomainChassis].Attach(rx)

	var authErr error
	rx.OnReceive(func(_ sim.Time, f *can.Frame, _ *can.Controller) {
		_, authErr = v.VerifyAuthenticated(f)
	})
	// Attacker without the key sends a frame with a guessed MAC.
	_ = tx.Send(can.Frame{ID: 0x123, Data: []byte{1, 2, 3, 4, 0xDE, 0xAD, 0xBE, 0xEF}}, nil)
	_ = v.Kernel.Run()
	if authErr == nil {
		t.Fatal("forged MAC accepted")
	}
	if v.AuthFailures.Value != 1 {
		t.Fatalf("auth failures=%d", v.AuthFailures.Value)
	}
	// Short frame also rejected.
	if _, err := v.VerifyAuthenticated(&can.Frame{ID: 1, Data: []byte{1}}); err == nil {
		t.Fatal("short frame accepted")
	}
}

func TestAuthenticatedSendSizeLimit(t *testing.T) {
	v := newVehicle(t, Config{MACBits: 64})
	tx := can.NewController("tx")
	v.Buses[DomainChassis].Attach(tx)
	if err := v.AuthenticatedSend(tx, 1, make([]byte, 1)); err == nil {
		// 1 + 8 > 8: must fail before touching the SHE.
		t.Fatal("oversize authenticated frame accepted")
	}
}

func TestPolicyPlaneReconfiguresVehicle(t *testing.T) {
	auth, err := policy.NewAuthority()
	if err != nil {
		t.Fatal(err)
	}
	v := newVehicle(t, Config{PolicyKey: auth.PublicKey(), MACBits: 0})

	p := &policy.Policy{
		Name:    "field-update-2026-07",
		Version: 1,
		Directives: []policy.Directive{
			{Kind: "crypto.mac-bits", Params: map[string]string{"bits": "32"}},
			{Kind: "gateway.rule", Params: map[string]string{
				"name": "nav-to-pt", "from": DomainInfotainment,
				"idlo": "0x100", "idhi": "0x1FF", "action": "allow", "to": DomainPowertrain, "rate": "100",
			}},
			{Kind: "ids.detector", Params: map[string]string{"name": "entropy"}},
		},
	}
	auth.Sign(p)
	if err := v.Policy.Install(p); err != nil {
		t.Fatal(err)
	}
	if v.MACBits != 32 {
		t.Fatalf("MACBits=%d", v.MACBits)
	}
	if len(v.Gateway.Rules()) != 1 || v.Gateway.Rules()[0].Name != "nav-to-pt" {
		t.Fatalf("rules=%v", v.Gateway.Rules())
	}
	found := false
	for _, d := range v.IDS.Detectors() {
		if d == "entropy" {
			found = true
		}
	}
	if !found {
		t.Fatalf("detectors=%v", v.IDS.Detectors())
	}
}

func TestPolicyPlaneRejectsBadDirectives(t *testing.T) {
	auth, _ := policy.NewAuthority()
	v := newVehicle(t, Config{PolicyKey: auth.PublicKey()})
	cases := []policy.Directive{
		{Kind: "crypto.mac-bits", Params: map[string]string{"bits": "7"}},
		{Kind: "crypto.mac-bits", Params: map[string]string{"bits": "zebra"}},
		{Kind: "gateway.rule", Params: map[string]string{"idlo": "zebra"}},
		{Kind: "gateway.rule", Params: map[string]string{"action": "maybe"}},
		{Kind: "ids.detector", Params: map[string]string{"name": "oracle"}},
	}
	for i, d := range cases {
		p := &policy.Policy{Name: "bad", Version: uint64(i + 1), Directives: []policy.Directive{d}}
		auth.Sign(p)
		if err := v.Policy.Install(p); err == nil {
			t.Fatalf("directive %d accepted: %+v", i, d)
		}
	}
}

func TestPolicyDetectorReplaceInPlace(t *testing.T) {
	auth, _ := policy.NewAuthority()
	v := newVehicle(t, Config{PolicyKey: auth.PublicKey()})
	before := len(v.IDS.Detectors())
	// Installing "frequency" again replaces rather than duplicates.
	p := &policy.Policy{Name: "d", Version: 1, Directives: []policy.Directive{
		{Kind: "ids.detector", Params: map[string]string{"name": "frequency"}},
	}}
	auth.Sign(p)
	if err := v.Policy.Install(p); err != nil {
		t.Fatal(err)
	}
	if len(v.IDS.Detectors()) != before {
		t.Fatalf("detector count %d -> %d", before, len(v.IDS.Detectors()))
	}
}

// The E12 lifecycle in miniature: a capability ages out, the vehicle goes
// non-current, an in-field upgrade restores currency.
func TestFieldLifeUpgradeRestoresCurrency(t *testing.T) {
	v := newVehicle(t, Config{})
	if err := v.Arch.Deprecate(SecureProcessing, "she"); err != nil {
		t.Fatal(err)
	}
	if v.Arch.SecurityCurrent() {
		t.Fatal("deprecation invisible")
	}
	if err := v.Arch.Install(SecureProcessing, Implementation{Name: "she", Version: 2, Component: v.SHE}); err != nil {
		t.Fatal(err)
	}
	if !v.Arch.SecurityCurrent() {
		t.Fatal("upgrade did not restore currency")
	}
	if len(v.Arch.UpgradeLog) == 0 || !strings.Contains(v.Arch.UpgradeLog[len(v.Arch.UpgradeLog)-1], "she@v2") {
		t.Fatalf("log=%v", v.Arch.UpgradeLog)
	}
}

func TestGatewayRuleParsingDefaults(t *testing.T) {
	r, err := parseGatewayRule(policy.Directive{Kind: "gateway.rule", Params: map[string]string{}})
	if err != nil {
		t.Fatal(err)
	}
	if r.From != "*" || r.Action != 0 || r.IDHi != uint32(can.MaxExtendedID) {
		t.Fatalf("defaults: %+v", r)
	}
}
