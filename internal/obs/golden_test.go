package obs_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"autosec/internal/can"
	"autosec/internal/core"
	"autosec/internal/keyless"
	"autosec/internal/obs"
	"autosec/internal/sim"
	"autosec/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden trace files")

// goldenScenario runs the canonical seed-1 keyless-relay scenario into a
// fresh tracer: 200ms of normal multi-domain traffic (kernel + can +
// gateway events), a thief implant injecting an unknown ID on the
// powertrain (ids alerts), and a relay attack against the distance-bound
// PKES followed by a legitimate unlock (keyless verdicts). Everything
// runs on one seeded kernel, so the resulting trace is byte-deterministic.
func goldenScenario(t *testing.T) *obs.Tracer {
	t.Helper()
	const vin = "GOLDEN-TRACE-01"
	tr := obs.NewTracer(1 << 14)
	v, err := core.NewVehicle(core.Config{VIN: vin, Seed: 1})
	if err != nil {
		t.Fatalf("NewVehicle: %v", err)
	}
	v.Instrument(tr, nil)
	v.TrainIDS(workload.SyntheticTrace(workload.PowertrainMatrix(), 5*sim.Second, 1, 0.01))
	v.StartTraffic()

	implant := can.NewController("thief-implant")
	v.Buses[core.DomainPowertrain].Attach(implant)
	var stopImplant func()
	v.Kernel.At(50*sim.Millisecond, func() {
		stopImplant = can.PeriodicSender(v.Kernel, implant,
			can.Frame{ID: 0x666, Data: []byte{0xDE, 0xAD}}, 5*sim.Millisecond, 0)
	})

	// Same key derivation as core.NewVehicle, so the fob pairs with
	// v.Keyless.
	var pkesKey [16]byte
	copy(pkesKey[:], vin+"-pkes-key------")
	fob := keyless.NewFob(pkesKey)
	relay := &keyless.Relay{
		PosA:    keyless.Position{X: 1},
		PosB:    keyless.Position{X: 59.5},
		Latency: 10 * sim.Microsecond,
	}
	v.Kernel.At(100*sim.Millisecond, func() {
		v.Keyless.DistanceBounding = true
		v.Keyless.RTTBudget = 2*sim.Millisecond + 200*sim.Nanosecond
		fob.Pos = keyless.Position{X: 60} // fob indoors: relay attempt
		_, _ = v.Keyless.TryRelayUnlock(relay, fob)
		fob.Pos = keyless.Position{X: 1} // owner at the door
		_, _ = v.Keyless.TryUnlock(fob)
	})

	if err := v.Kernel.RunUntil(200 * sim.Millisecond); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if stopImplant != nil {
		stopImplant()
	}
	v.StopTraffic()
	if tr.Dropped() != 0 {
		t.Fatalf("ring too small for golden scenario: %d events dropped", tr.Dropped())
	}
	return tr
}

// TestGoldenChromeTrace pins the Chrome trace_event export of the
// seed-1 keyless-relay scenario byte-for-byte, and checks the structural
// claims the export makes: valid JSON, and events from at least the four
// core subsystems.
func TestGoldenChromeTrace(t *testing.T) {
	var out bytes.Buffer
	if err := goldenScenario(t).WriteChromeTrace(&out); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}

	if !json.Valid(out.Bytes()) {
		t.Fatalf("export is not valid JSON")
	}
	var events []map[string]any
	if err := json.Unmarshal(out.Bytes(), &events); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	cats := map[string]bool{}
	for _, e := range events {
		if ph, _ := e["ph"].(string); ph == "M" {
			continue
		}
		if cat, _ := e["cat"].(string); cat != "" {
			cats[cat] = true
		}
	}
	for _, want := range []string{"kernel", "can", "gateway", "ids", "keyless"} {
		if !cats[want] {
			t.Errorf("no events from subsystem %q in golden trace (have %v)", want, cats)
		}
	}

	golden := filepath.Join("testdata", "golden_relay_trace.json")
	if *update {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatalf("update golden: %v", err)
		}
		t.Logf("updated %s (%d events)", golden, len(events))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("Chrome trace drifted from golden %s: got %d bytes, want %d bytes; rerun with -update if intentional",
			golden, out.Len(), len(want))
	}
}

// TestGoldenChromeTraceIsDeterministic rebuilds the scenario from
// scratch and demands byte-identical output — the property the golden
// file (and CI's obs-smoke job) relies on.
func TestGoldenChromeTraceIsDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := goldenScenario(t).WriteChromeTrace(&a); err != nil {
		t.Fatalf("first export: %v", err)
	}
	if err := goldenScenario(t).WriteChromeTrace(&b); err != nil {
		t.Fatalf("second export: %v", err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("two identical runs produced different traces (%d vs %d bytes)", a.Len(), b.Len())
	}
}
