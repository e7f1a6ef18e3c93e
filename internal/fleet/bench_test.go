package fleet

import (
	"context"
	"testing"

	"autosec/internal/can"
	"autosec/internal/core"
	"autosec/internal/gateway"
	"autosec/internal/netif"
	"autosec/internal/obs"
	"autosec/internal/sim"
)

// canonicalConfig is the canonical fleet vehicle's build: two zones,
// each with a local CAN body domain.
func canonicalConfig() core.Config {
	return core.Config{VIN: "BENCH-FLEET", Seed: 1, Zonal: &core.ZonalConfig{
		Zones:        2,
		LocalDomains: []core.DomainSpec{{Name: "body", Kind: netif.CAN}},
	}}
}

// BenchmarkFleetVehiclesPerSec is the fleet-throughput headline pinned
// in CI's bench-smoke job: b.N pooled vehicles driven end to end through
// the sharded driver (zonal topology, cross-domain traffic, quarantine
// reflex), reported as vehicles/sec. Track this when touching the reset
// path — fleet wall-clock is per-vehicle cost times population.
func BenchmarkFleetVehiclesPerSec(b *testing.B) {
	cfg := canonicalConfig()
	b.ReportAllocs()
	b.ResetTimer()
	if _, _, err := DriveObs(context.Background(), Driver{Cfg: cfg, N: b.N}, ObsOptions{}, driveScenario); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "vehicles/sec")
}

// BenchmarkFleetVehiclesPerSecObs is BenchmarkFleetVehiclesPerSec with
// the metrics plane enabled: per-vehicle registries, probe
// materialization and the index-order fleet merge. The acceptance gate
// (checked by cmd/benchreport -compare) is <10% overhead against the
// disabled benchmark above, which itself must not move — disabled means
// nil instruments and one branch per hot-path site.
func BenchmarkFleetVehiclesPerSecObs(b *testing.B) {
	cfg := canonicalConfig()
	b.ReportAllocs()
	b.ResetTimer()
	_, res, err := DriveObs(context.Background(), Driver{Cfg: cfg, N: b.N},
		ObsOptions{Metrics: true}, driveScenario)
	if err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if len(res.Registry.Snapshot()) == 0 {
		b.Fatal("metrics plane produced an empty fleet registry")
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "vehicles/sec")
}

// BenchmarkFleetRegistryMerge isolates the merge point itself: folding
// one materialized per-vehicle registry into a warm fleet registry.
// This is the per-vehicle cost added at the drive barrier; steady state
// must be allocation-free (TestFleetMergeSteadyStateAllocs pins it).
func BenchmarkFleetRegistryMerge(b *testing.B) {
	cfg := core.Config{VIN: "BENCH-MERGE", Seed: 1, Zonal: &core.ZonalConfig{
		Zones:        2,
		LocalDomains: []core.DomainSpec{{Name: "body", Kind: netif.CAN}},
	}}
	pool := core.NewVehiclePool(cfg)
	v, err := pool.Acquire(VehicleSeed(1, 0))
	if err != nil {
		b.Fatal(err)
	}
	shard := obs.NewRegistry()
	v.Instrument(nil, shard)
	if _, err := driveScenario(0, v); err != nil {
		b.Fatal(err)
	}
	shard.Materialize()
	pool.Release(v)
	fleet := obs.NewRegistry()
	if err := fleet.Merge(shard); err != nil { // warm-up creates the keys
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fleet.Merge(shard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetSteadyState is the alloc half of the benchmark pair: the
// simulation-step loop of a pooled vehicle at steady state. CI greps the
// output for nonzero allocs/op — the same zero-alloc discipline pinned on
// the kernel, gateway and zonal hot paths.
func BenchmarkFleetSteadyState(b *testing.B) {
	pool := core.NewVehiclePool(core.Config{VIN: "BENCH-ALLOC", Seed: 9})
	v, err := pool.Acquire(1)
	if err != nil {
		b.Fatal(err)
	}
	v.Gateway.SetRules([]*gateway.Rule{{
		Name: "st", From: core.DomainChassis, To: []string{core.DomainInfotainment},
		IDLo: 0, IDHi: 0x7FF, Action: gateway.Allow,
	}})
	c := can.NewController("tick")
	v.Buses[core.DomainChassis].Attach(c)
	data := []byte{0x01, 0x02}
	k := v.Kernel
	k.Every(0, sim.Millisecond, func() {
		_ = c.Send(can.Frame{ID: 0x123, Data: data}, nil)
	})
	until := sim.Time(20 * sim.Millisecond)
	if err := k.RunUntil(until); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		until += sim.Time(2 * sim.Millisecond)
		_ = k.RunUntil(until)
	}
	b.StopTimer()
	pool.Release(v)
}
