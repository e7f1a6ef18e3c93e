package experiments

import (
	"testing"

	"autosec/internal/netif"
	"autosec/internal/sim"
)

// TestE21VehicleSteadyStateAllocs pins the allocations of E21's vehicle
// — two per-zone kernels, FlexRay, LIN and Ethernet/SOME/IP extra
// domains, the trained medium-aware IDS tapped into all of them — per
// 20 ms slice of clean steady-state traffic, after the discovery burst.
// What remains are the scripts' own payloads (FlexRay publish functions,
// LIN responses, Ethernet and SOME/IP sends); the IDS taps, the LIN
// schedule and its transfers allocate nothing.
func TestE21VehicleSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	capture, _ := e21BuildVehicle(1, true)
	train := &netif.Trace{}
	recs := []*netif.Trace{
		netif.Recorder(capture.Media["frchassis"]),
		netif.Recorder(capture.Media["cabin"]),
		netif.Recorder(capture.Media["telematics"]),
	}
	if err := capture.RunUntil(e21CaptureEnd); err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		train.Records = append(train.Records, r.Records...)
	}
	v, _ := e21BuildVehicle(1, true)
	v.TrainIDS(train)
	until := sim.Time(1500 * sim.Millisecond) // past the discovery burst
	if err := v.RunUntil(until); err != nil {
		t.Fatal(err)
	}
	alerts := len(v.IDS.Alerts)
	allocs := testing.AllocsPerRun(50, func() {
		until += 20 * sim.Millisecond
		if err := v.RunUntil(until); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.2f allocs per 20 ms slice", allocs)
	if len(v.IDS.Alerts) != alerts {
		t.Fatalf("steady state raised %d alerts; the slice must be clean", len(v.IDS.Alerts)-alerts)
	}
	if allocs > 48 {
		t.Fatalf("%.2f allocs per 20 ms slice, want <= 48", allocs)
	}
}
