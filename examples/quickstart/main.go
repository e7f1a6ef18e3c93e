// Quickstart: build the standard three-domain vehicle, drive it for five
// virtual seconds, exercise authenticated CAN, and print the security
// architecture inventory.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"sort"

	"autosec/internal/can"
	"autosec/internal/core"
	"autosec/internal/sim"
	"autosec/internal/workload"
)

func main() {
	v, err := core.NewVehicle(core.Config{VIN: "QUICKSTART-01", Seed: 42, MACBits: 32})
	if err != nil {
		log.Fatal(err)
	}

	// Provision the IVN authentication key into the SHE and train the IDS
	// on a clean reference corpus.
	var key [16]byte
	copy(key[:], "demo-ivn-mac-key")
	if err := v.ProvisionMACKey(key); err != nil {
		log.Fatal(err)
	}
	v.TrainIDS(workload.SyntheticTrace(workload.PowertrainMatrix(), 10*sim.Second, 42, 0.01))

	// Two application nodes on the chassis domain exchanging an
	// authenticated message.
	tx := can.NewController("steering-angle-sensor")
	rx := can.NewController("lane-keep-assist")
	v.Buses[core.DomainChassis].Attach(tx)
	v.Buses[core.DomainChassis].Attach(rx)
	rx.OnReceive(func(at sim.Time, f *can.Frame, _ *can.Controller) {
		payload, err := v.VerifyAuthenticated(f)
		if err != nil {
			fmt.Printf("[%v] REJECTED frame %s: %v\n", at, f, err)
			return
		}
		fmt.Printf("[%v] authenticated steering angle: %d\n", at, payload[0])
	})

	// Drive: periodic matrices on powertrain and infotainment, plus our
	// authenticated message at 1 Hz.
	v.StartTraffic()
	v.Kernel.Every(sim.Second, sim.Second, func() {
		angle := byte(v.Kernel.Now() / sim.Second * 3)
		if err := v.AuthenticatedSend(tx, 0x1C5, []byte{angle, 0, 0}); err != nil {
			log.Fatal(err)
		}
	})
	// An unauthenticated forgery attempt partway through.
	v.Kernel.At(2500*sim.Millisecond, func() {
		forger := can.NewController("forger")
		v.Buses[core.DomainChassis].Attach(forger)
		_ = forger.Send(can.Frame{ID: 0x1C5, Data: []byte{99, 0, 0, 1, 2, 3, 4}}, nil)
	})

	if err := v.Kernel.RunUntil(5 * sim.Second); err != nil {
		log.Fatal(err)
	}
	v.StopTraffic()

	fmt.Println("\n--- after 5s of virtual driving ---")
	// Sort the map keys so the report is byte-identical run to run.
	busNames := make([]string, 0, len(v.Buses))
	for name := range v.Buses {
		busNames = append(busNames, name)
	}
	sort.Strings(busNames)
	for _, name := range busNames {
		bus := v.Buses[name]
		fmt.Printf("%-13s load=%5.2f%% frames=%d\n", name, 100*bus.Load(), bus.FramesOK.Value)
	}
	fmt.Printf("auth failures caught: %d\n", v.AuthFailures.Value)
	fmt.Printf("IDS: %s\n", v.IDS.Summary())
	fmt.Println("\n4+1 architecture inventory:")
	inv := v.Arch.Inventory()
	layers := make([]string, 0, len(inv))
	for layer := range inv {
		layers = append(layers, layer)
	}
	sort.Strings(layers)
	for _, layer := range layers {
		fmt.Printf("  %-18s %v\n", layer, inv[layer])
	}
}
