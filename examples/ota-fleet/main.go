// OTA fleet compromise: the paper's §4.2 chained attack, end to end.
// An attacker with physical access to one vehicle extracts its SHE master
// key through the power side channel (real CPA against the simulated
// leakage), then tries to weaponize the key (a) for malicious SHE key
// loads across the fleet under each provisioning policy and (b) against
// the Uptane-style OTA pipeline, where a single stolen key is not enough.
//
//	go run ./examples/ota-fleet
package main

import (
	"fmt"
	"log"

	"autosec/internal/fleet"
	"autosec/internal/ota"
	"autosec/internal/she"
	"autosec/internal/sidechannel"
	"autosec/internal/sim"
)

func main() {
	var master [16]byte
	copy(master[:], "prod-master-2026")

	fmt.Println("== step 1: physical access + side channel ==")
	f := fleet.New(500, 5, fleet.SharedKey, master, 0)
	victim := f.Vehicles[0]
	// The attacker measures 2000 encryptions on the bench.
	rng := sim.NewStream(99, "bench")
	// Make the victim's master key usable for encryption probing in a
	// spare slot (a real attacker triggers any key-use they can provoke;
	// SHE's CMAC path leaks identically in this model).
	if err := victim.Engine.ProvisionKey(she.Key9, victim.MasterKey(), she.Flags{}); err != nil {
		log.Fatal(err)
	}
	ts, err := sidechannel.AcquireFromEngine(victim.Engine, she.Key9, 2000,
		sidechannel.Config{NoiseSigma: 1.5}, rng)
	if err != nil {
		log.Fatal(err)
	}
	recovered := sidechannel.CPA(ts)
	rate := sidechannel.SuccessRate(recovered, victim.MasterKey())
	fmt.Printf("CPA over %d traces recovered %.0f%% of the key bytes\n", 2000, 100*rate)
	if rate < 1 {
		fmt.Println("(partial recovery — a real attacker acquires more traces; see E2)")
	}

	fmt.Println("\n== step 2: one key against the fleet, per provisioning policy ==")
	for _, pol := range []fleet.Policy{fleet.SharedKey, fleet.PerModel, fleet.PerDevice} {
		fl := fleet.New(500, 5, pol, master, 0)
		res := fl.AssessCompromise(0)
		fmt.Printf("%-11s -> %3d/%d vehicles accept a malicious key load (%.1f%%)\n",
			pol, res.Compromised, res.FleetSize, 100*res.Fraction())
	}

	fmt.Println("\n== step 3: the stolen key against Uptane-style OTA ==")
	director, err := ota.NewRepository("director")
	if err != nil {
		log.Fatal(err)
	}
	image, err := ota.NewRepository("image")
	if err != nil {
		log.Fatal(err)
	}
	client := ota.NewClient("VIN-000042", director.PublicKey(), image.PublicKey())
	client.AddECU("brake-mcu", 1)

	evil := []byte("malicious brake firmware")
	evilTarget := ota.MakeTarget("brake-fw", 2, "brake-mcu", evil)
	// Suppose the attacker even stole the *director's* signing key.
	forged := &ota.Bundle{
		Director: ota.ForgeMetadata(director.StealKey(), "director", "VIN-000042", 9, []ota.Target{evilTarget}, sim.Hour),
		Image:    image.Sign("", nil, sim.Hour), // the image repo never attested it
		Payloads: map[string][]byte{"brake-fw": evil},
	}
	if err := client.Apply(forged, sim.Minute); err != nil {
		fmt.Printf("forged campaign with ONE stolen repo key: rejected (%v)\n", err)
	} else {
		fmt.Println("forged campaign installed — this should not happen")
	}

	good := []byte("brake firmware v2, signed by both repositories")
	target := ota.MakeTarget("brake-fw", 2, "brake-mcu", good)
	legit := &ota.Bundle{
		Director: director.Sign("VIN-000042", []ota.Target{target}, sim.Hour),
		Image:    image.Sign("", []ota.Target{target}, sim.Hour),
		Payloads: map[string][]byte{"brake-fw": good},
	}
	if err := client.Apply(legit, sim.Minute); err != nil {
		log.Fatalf("legitimate campaign rejected: %v", err)
	}
	ecu, _ := client.ECU("brake-mcu")
	fmt.Printf("legitimate campaign: installed %s v%d\n", ecu.InstalledName, ecu.InstalledVersion)
	fmt.Println("\n(the architecture lesson: unique-per-device keys bound step 2, and the\n" +
		" two-repository OTA design bounds step 3 — defense in depth per layer)")
}
