package fleet

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"autosec/internal/can"
	"autosec/internal/core"
	"autosec/internal/gateway"
	"autosec/internal/netif"
	"autosec/internal/sim"
)

// driveScenario is a compact per-vehicle run exercising the subsystems a
// fleet scenario touches — rules, cross-domain traffic, a quarantine —
// and returns a fingerprint that any cross-worker nondeterminism or
// pool-state leak would perturb.
func driveScenario(idx int, v *core.Vehicle) (string, error) {
	k := v.Kernel
	rules := []*gateway.Rule{{
		Name: "open", From: core.DomainInfotainment, To: []string{core.DomainPowertrain},
		IDLo: 0, IDHi: 0x7FF, Action: gateway.Allow,
	}}
	if v.Zonal != nil {
		v.Zonal.SetRules(rules)
	} else {
		v.Gateway.SetRules(rules)
	}
	c := can.NewController("src")
	v.Buses[core.DomainInfotainment].Attach(c)
	st := k.Stream("drive-test")
	k.Every(st.Duration(100*sim.Microsecond, sim.Millisecond), 500*sim.Microsecond, func() {
		_ = c.Send(can.Frame{ID: can.ID(0x100 + idx%8), Data: []byte{byte(idx)}}, nil)
	})
	if idx%7 == 3 {
		k.At(2*sim.Millisecond, func() {
			if v.Zonal != nil {
				_ = v.Zonal.QuarantineZoneOf(core.DomainInfotainment)
			} else {
				_ = v.Gateway.Quarantine(core.DomainInfotainment)
			}
		})
	}
	if err := k.RunUntil(4 * sim.Millisecond); err != nil {
		return "", err
	}
	backbone := int64(0)
	if v.Zonal != nil {
		backbone = v.Zonal.BackboneFrames.Value
	}
	return fmt.Sprintf("idx=%d steps=%d audit=%d backbone=%d",
		idx, k.Steps(), v.Audit.Len(), backbone), nil
}

// TestDriveParInvariance is the fleet-scale determinism gate: the same
// population driven at one worker and at eight workers must produce
// byte-identical per-vehicle results. CI's race job runs this under
// -race, so cross-shard data races surface here too.
func TestDriveParInvariance(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  core.Config
	}{
		{"central", core.Config{VIN: "PAR-C", Seed: 11}},
		{"zonal", core.Config{VIN: "PAR-Z", Seed: 11, Zonal: &core.ZonalConfig{
			Zones:        3,
			LocalDomains: []core.DomainSpec{{Name: "body", Kind: netif.CAN}},
		}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 96
			serial, _, err := DriveObs(context.Background(),
				Driver{Cfg: tc.cfg, N: n, Workers: 1}, ObsOptions{}, driveScenario)
			if err != nil {
				t.Fatalf("par=1: %v", err)
			}
			par, _, err := DriveObs(context.Background(),
				Driver{Cfg: tc.cfg, N: n, Workers: 8}, ObsOptions{}, driveScenario)
			if err != nil {
				t.Fatalf("par=8: %v", err)
			}
			a := strings.Join(serial, "\n")
			b := strings.Join(par, "\n")
			if a != b {
				t.Fatalf("par=1 and par=8 diverged:\n--- par=1\n%s\n--- par=8\n%s", a, b)
			}
			// The scenario must actually vary per vehicle, or the
			// invariance assertion is vacuous.
			if serial[0] == serial[1] {
				t.Fatalf("vehicles 0 and 1 identical — per-index seeds not reaching the scenario: %q", serial[0])
			}
		})
	}
}

// TestDriveErrorLowestIndex pins the error contract: with a single
// worker the drive aborts at the first failing vehicle and reports it;
// with several workers the error is still one of the failures (shards
// that see the abort flag may stop before reaching their own).
func TestDriveErrorLowestIndex(t *testing.T) {
	boom := errors.New("boom")
	failFrom5 := func(idx int, v *core.Vehicle) (int, error) {
		if idx >= 5 {
			return 0, boom
		}
		return idx, nil
	}
	_, _, err := DriveObs(context.Background(),
		Driver{Cfg: core.Config{VIN: "ERR"}, N: 40, Workers: 1}, ObsOptions{}, failFrom5)
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("want wrapped boom, got %v", err)
	}
	if want := "fleet: vehicle 5:"; !strings.Contains(err.Error(), want) {
		t.Fatalf("want error for %q, got %v", want, err)
	}
	_, _, err = DriveObs(context.Background(),
		Driver{Cfg: core.Config{VIN: "ERR"}, N: 40, Workers: 4}, ObsOptions{}, failFrom5)
	if err == nil || !errors.Is(err, boom) || !strings.Contains(err.Error(), "fleet: vehicle ") {
		t.Fatalf("want a per-vehicle wrapped boom, got %v", err)
	}
}

// TestDrivePanicBecomesError pins panic containment: a vehicle whose
// scenario panics, or whose pooled Reset panics, fails the drive with an
// error naming its index and seed instead of crashing the process, at
// one worker and at several, and the error still obeys the lowest-index
// contract.
func TestDrivePanicBecomesError(t *testing.T) {
	cfg := core.Config{VIN: "PANIC", Seed: 5}
	for _, tc := range []struct {
		name string
		fn   func(idx int, v *core.Vehicle) (int, error)
		want string
	}{
		{"scenario", func(idx int, v *core.Vehicle) (int, error) {
			if idx == 37 {
				panic("scenario bug")
			}
			return idx, nil
		}, fmt.Sprintf("fleet: vehicle 37 (seed %d): panic: scenario bug", VehicleSeed(cfg.Seed, 37))},
		// Vehicle 37 breaks its vehicle, so the Reset inside vehicle 38's
		// Acquire (same shard, same pool at 1 and 4 workers) panics.
		{"acquire", func(idx int, v *core.Vehicle) (int, error) {
			if idx == 37 {
				v.Kernel = nil
			}
			return idx, nil
		}, fmt.Sprintf("fleet: vehicle 38 (seed %d): panic: runtime error", VehicleSeed(cfg.Seed, 38))},
	} {
		for _, workers := range []int{1, 4} {
			_, _, err := DriveObs(context.Background(), Driver{Cfg: cfg, N: 64, Workers: workers}, ObsOptions{}, tc.fn)
			if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
				t.Fatalf("%s, workers=%d: err = %v, want prefix %q", tc.name, workers, err, tc.want)
			}
		}
	}
}

func TestDriveContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := DriveObs(ctx, Driver{Cfg: core.Config{VIN: "CTX"}, N: 8}, ObsOptions{},
		func(idx int, v *core.Vehicle) (int, error) { return idx, nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestDriveRejectsNonPositivePopulation(t *testing.T) {
	for _, n := range []int{0, -3} {
		if _, _, err := DriveObs(context.Background(), Driver{Cfg: core.Config{VIN: "N"}, N: n}, ObsOptions{},
			func(idx int, v *core.Vehicle) (int, error) { return idx, nil }); err == nil {
			t.Fatalf("N=%d must be rejected", n)
		}
	}
}

// TestVehicleSeedDecorrelated: per-index seeds must be distinct and must
// not collapse onto the base seed — the mapping is what keeps vehicle
// populations statistically independent regardless of sharding.
func TestVehicleSeedDecorrelated(t *testing.T) {
	const base = 42
	seen := map[uint64]int{base: -1}
	for idx := 0; idx < 10_000; idx++ {
		s := VehicleSeed(base, idx)
		if prev, dup := seen[s]; dup {
			t.Fatalf("seed collision: idx %d and %d both map to %#x", prev, idx, s)
		}
		seen[s] = idx
	}
	if VehicleSeed(1, 0) == VehicleSeed(2, 0) {
		t.Fatal("base seed not reaching the derived seeds")
	}
}

// TestFleetSteadyStateAllocs is the pooled-lifecycle alloc gate wired
// into CI's bench-smoke job: once a pooled vehicle reaches steady state,
// the simulation step loop (periodic send, gateway forward, kernel
// dispatch) must allocate nothing. Allocation creep here multiplies by
// fleet size × steps, so it is pinned at exactly zero like the kernel,
// gateway and zonal gates.
func TestFleetSteadyStateAllocs(t *testing.T) {
	pool := core.NewVehiclePool(core.Config{VIN: "ALLOC", Seed: 9})
	v, err := pool.Acquire(1)
	if err != nil {
		t.Fatal(err)
	}
	// Allowed cross-domain flow avoiding the IDS tap (powertrain) and the
	// audit log (denials only), so steady state has no append-only sinks.
	v.Gateway.SetRules([]*gateway.Rule{{
		Name: "st", From: core.DomainChassis, To: []string{core.DomainInfotainment},
		IDLo: 0, IDHi: 0x7FF, Action: gateway.Allow,
	}})
	c := can.NewController("tick")
	v.Buses[core.DomainChassis].Attach(c)
	data := []byte{0x01, 0x02}
	k := v.Kernel
	// The period must exceed the frame time (~120µs at 500kbps, twice —
	// source bus then forwarded hop) or the TX queue grows forever and the
	// ring reallocates; a sustainable rate is part of steady state.
	k.Every(0, sim.Millisecond, func() {
		_ = c.Send(can.Frame{ID: 0x123, Data: data}, nil)
	})

	// Warm-up grows every backing array (event free list, bus queues,
	// payload recycling) past anything the measured windows reach.
	until := sim.Time(20 * sim.Millisecond)
	if err := k.RunUntil(until); err != nil {
		t.Fatal(err)
	}

	if allocs := testing.AllocsPerRun(200, func() {
		until += sim.Time(2 * sim.Millisecond)
		_ = k.RunUntil(until)
	}); allocs != 0 {
		t.Fatalf("steady-state allocs per run window = %v, want 0", allocs)
	}
	pool.Release(v)
}

// TestFleetVehicleAllocs pins the allocations of one canonical fleet
// vehicle — BenchmarkFleetVehiclesPerSec's build and scenario — over a
// warm drive: pooled reset, scenario set-up, CAN traffic, gateway and
// zonal backbone crossings, the IDS and its audit entries. The marginal
// count between two drive sizes cancels the pool's construction and the
// driver's fixed costs.
func TestFleetVehicleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	drive := func(n int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, _, err := DriveObs(context.Background(), Driver{Cfg: canonicalConfig(), N: n, Workers: 1}, ObsOptions{}, driveScenario); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	drive(50) // first use: lazily built package state, warm caches
	small, large := drive(100), drive(500)
	perVehicle := float64(large-small) / 400
	t.Logf("%.2f allocs per vehicle", perVehicle)
	if perVehicle > 32 {
		t.Fatalf("%.2f allocs per canonical fleet vehicle, want <= 32", perVehicle)
	}
}
