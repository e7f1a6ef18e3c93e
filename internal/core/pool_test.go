package core

import (
	"fmt"
	"testing"

	"autosec/internal/can"
	"autosec/internal/netif"
	"autosec/internal/obs"
)

// TestPoolReuseNoLeak runs many sequential acquire/run/release cycles on
// one pool, replaying the same scenario under the same seed every cycle.
// Any state leaking across a Reset — a counter not rewound, a quarantine
// flag left set, an audit entry surviving, a stream not reseeded —
// accumulates and diverges some later cycle's fingerprint from the first.
func TestPoolReuseNoLeak(t *testing.T) {
	cycles := 50
	if testing.Short() {
		cycles = 10
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"central", Config{VIN: "LEAK-C", MACBits: 32, PolicyKey: []byte("leak-key")}},
		{"zonal", Config{VIN: "LEAK-Z", Zonal: &ZonalConfig{
			Zones:        3,
			LocalDomains: []DomainSpec{{Name: "body", Kind: netif.CAN}},
		}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pool := NewVehiclePool(tc.cfg)
			const seed, scen = 0x5EED, 0x5CE0
			var first string
			for i := 0; i < cycles; i++ {
				v, err := pool.Acquire(seed)
				if err != nil {
					t.Fatalf("cycle %d: acquire: %v", i, err)
				}
				fp := eqScenario(t, v, scen)
				pool.Release(v)
				if i == 0 {
					first = fp
					continue
				}
				if fp != first {
					t.Fatalf("cycle %d diverged from cycle 0 — state leaked across Reset:\n%s",
						i, eqFirstDiff(first, fp))
				}
			}
			if pool.Misses != 1 || pool.Hits != cycles-1 {
				t.Fatalf("pool counters: misses=%d hits=%d, want 1/%d", pool.Misses, pool.Hits, cycles-1)
			}
		})
	}
}

// TestPoolDistinctSeedsDiverge guards the other direction: the reseeding
// performed by Reset must actually matter, or fleet runs would simulate
// the same vehicle N times.
func TestPoolDistinctSeedsDiverge(t *testing.T) {
	pool := NewVehiclePool(Config{VIN: "SEEDS"})
	fps := make(map[string]uint64)
	for _, seed := range []uint64{1, 2, 3} {
		v, err := pool.Acquire(seed)
		if err != nil {
			t.Fatal(err)
		}
		fp := eqScenario(t, v, 0x5CE0)
		pool.Release(v)
		if prev, dup := fps[fp]; dup {
			t.Fatalf("seeds %d and %d produced identical runs — Reset is not reseeding", prev, seed)
		}
		fps[fp] = seed
	}
}

// TestPoolReleaseNil documents that releasing nil is a no-op, so callers
// can release unconditionally on error paths.
func TestPoolReleaseNil(t *testing.T) {
	pool := NewVehiclePool(Config{VIN: "NIL"})
	pool.Release(nil)
	if _, err := pool.Acquire(1); err != nil {
		t.Fatalf("acquire after nil release: %v", err)
	}
	if pool.Misses != 1 {
		t.Fatalf("nil release must not enter the free list (misses=%d)", pool.Misses)
	}
}

// TestResetBeforeSeal pins the guard against resetting a Vehicle that was
// never sealed by NewVehicle (e.g. a zero-value struct).
func TestResetBeforeSeal(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Reset on an unsealed vehicle must panic")
		}
	}()
	var v Vehicle
	v.Reset(1)
}

func ExampleVehiclePool() {
	pool := NewVehiclePool(Config{VIN: "EXAMPLE"})
	for i := 0; i < 3; i++ {
		v, err := pool.Acquire(uint64(i + 1))
		if err != nil {
			panic(err)
		}
		_ = v.Kernel.RunUntil(1000)
		pool.Release(v)
	}
	fmt.Printf("misses=%d hits=%d\n", pool.Misses, pool.Hits)
	// Output: misses=1 hits=2
}

// TestResetKeepsMetricBindings pins the pooled-vehicle metrics contract:
// Reset detaches tracers but keeps the vehicle bound to the registry it
// was last Instrument-ed into, so a driver that rewinds that registry
// between runs reads every run without instrumenting again. Each key is
// one subsystem's hot-path instrument (bus histogram, IDS alert-gap
// histogram, audit counter); a probe would read the live objects either
// way. Instrumenting into another registry moves the binding.
func TestResetKeepsMetricBindings(t *testing.T) {
	keys := []string{"can/powertrain/frame_time_us/count", "ids/alert_gap_us/count", "audit/appends"}
	// Unknown identifiers on powertrain: the untrained spec detector
	// alerts on every frame, and every alert is audited.
	run := func(v *Vehicle) {
		c := can.NewController("src")
		v.Buses[DomainPowertrain].Attach(c)
		for i := 0; i < 4; i++ {
			_ = c.Send(can.Frame{ID: can.ID(0x123 + i), Data: []byte{byte(i)}}, nil)
		}
		if err := v.Kernel.Run(); err != nil {
			t.Fatal(err)
		}
	}
	read := func(reg *obs.Registry) map[string]float64 {
		out := make(map[string]float64)
		for _, m := range reg.Snapshot() {
			out[m.Key] = m.Value
		}
		return out
	}
	v := newVehicle(t, Config{VIN: "BIND"})
	reg := obs.NewRegistry()
	v.Instrument(nil, reg)
	run(v)
	for _, k := range keys {
		if read(reg)[k] == 0 {
			t.Fatalf("first run: %s = 0, want > 0", k)
		}
	}

	v.Reset(2)
	reg.Rewind()
	run(v)
	for _, k := range keys {
		if got := read(reg)[k]; got == 0 {
			t.Errorf("after Reset, %s = 0 in the bound registry, want > 0", k)
		}
	}

	v.Reset(3)
	reg.Rewind()
	reg2 := obs.NewRegistry()
	v.Instrument(nil, reg2)
	run(v)
	for _, k := range keys {
		if got := read(reg)[k]; got != 0 {
			t.Errorf("after rebinding, %s = %v in the old registry, want 0", k, got)
		}
		if read(reg2)[k] == 0 {
			t.Errorf("after rebinding, %s = 0 in the new registry, want > 0", k)
		}
	}
}
