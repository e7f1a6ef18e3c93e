package experiments

import (
	"context"
	"fmt"
	"strings"

	"autosec/internal/can"
	"autosec/internal/core"
	"autosec/internal/fleet"
	"autosec/internal/gateway"
	"autosec/internal/netif"
	"autosec/internal/obs"
	"autosec/internal/sim"
)

// E20 sweeps the fleet observability plane over observability modes ×
// fleet sizes: the same two-zone fleet driven with observability off,
// with merged metrics, and with metrics plus the sampled flight
// recorder. Every column is derived from deterministic artifacts — the
// index-order-merged registry, the trace selection, and per-vehicle
// audit verdicts — so the table is byte-identical at any worker count
// (CI diffs -fleetpar 1 against -fleetpar 8). Wall-clock overhead is
// deliberately absent: it is machine-dependent and lives in
// BenchmarkFleetVehiclesPerSec / BenchmarkFleetVehiclesPerSecObs and the
// benchreport -compare gate instead.
func E20Observability(seed uint64) *Table {
	return E20ObservabilityWith(seed, []int{1_000, 10_000}, 0)
}

// e20TraceRate samples ~2% of vehicles into the flight recorder; audit
// incidents (the quarantine reflex firing) are always captured on top.
const e20TraceRate = 0.02

// E20ObservabilityWith runs the sweep over custom fleet sizes and a
// fixed worker count (0 means GOMAXPROCS). benchreport's -obsfleet flag
// feeds custom sweeps through here; the golden table uses the defaults
// {1e3, 1e4} at default parallelism — legal precisely because the plane
// is worker-count invariant.
func E20ObservabilityWith(seed uint64, fleetSizes []int, workers int) *Table {
	t := &Table{
		ID:    "E20",
		Title: "Fleet observability plane: merged metrics and sampled traces (§7)",
		Claim: "a fleet-wide metrics registry merged in vehicle-index order and a seed-hash-sampled flight recorder yield byte-identical observability artifacts at any worker count",
		Columns: []string{"fleet", "obs mode", "metric keys",
			"frames ok", "backbone deliveries", "audit appends",
			"incident vehicles", "traces kept", "incident traces"},
	}
	cfg := core.Config{VIN: "E20-OBS", Seed: seed, Zonal: &core.ZonalConfig{
		Zones:        2,
		LocalDomains: []core.DomainSpec{{Name: "body", Kind: netif.CAN}},
	}}
	modes := []struct {
		name string
		opts fleet.ObsOptions
	}{
		{"off", fleet.ObsOptions{}},
		{"metrics", fleet.ObsOptions{Metrics: true}},
		{"metrics+traces", fleet.ObsOptions{Metrics: true, TraceRate: e20TraceRate}},
	}
	for _, n := range fleetSizes {
		for _, m := range modes {
			d := fleet.Driver{Cfg: cfg, N: n, Workers: workers}
			flags, res, err := fleet.DriveObs(context.Background(), d, m.opts,
				func(idx int, v *core.Vehicle) (int, error) {
					return e20Vehicle(v, idx), nil
				})
			if err != nil {
				panic(fmt.Sprintf("E20: fleet drive (n=%d, mode=%s): %v", n, m.name, err))
			}
			incidentVehicles := 0
			for _, f := range flags {
				incidentVehicles += f
			}
			keys, framesOK, deliveries, appends := 0, 0.0, 0.0, 0.0
			if m.opts.Metrics {
				snap := res.Registry.Snapshot()
				keys = len(snap)
				for _, mt := range snap {
					switch {
					case strings.HasSuffix(mt.Key, "/frames_ok"):
						framesOK += mt.Value
					case mt.Key == "zonal/backbone_deliveries":
						deliveries = mt.Value
					case mt.Key == "audit/appends":
						appends = mt.Value
					}
				}
			}
			incidentTraces := 0
			for _, tr := range res.Traces {
				if tr.Interesting {
					incidentTraces++
				}
			}
			t.AddRow(n, m.name, keys,
				obs.FormatValue(framesOK), obs.FormatValue(deliveries), obs.FormatValue(appends),
				incidentVehicles, len(res.Traces), incidentTraces)
		}
	}
	return t
}

// e20Vehicle is one vehicle's 4ms scenario, shaped so the flight
// recorder's "interesting" predicate has real positives: a chassis ECU
// streams status frames across the backbone into infotainment, and every
// fifth vehicle's reflex quarantines the infotainment zone at t=2ms —
// from then on each backbone arrival at that zone is audited as a
// quarantine drop, which SecurityIncidents counts. Traffic never crosses
// the powertrain IDS tap, so the stock untrained detectors stay silent
// and incidents are exactly the quarantined vehicles. Returns 1 when the
// vehicle recorded incidents, 0 otherwise.
func e20Vehicle(v *core.Vehicle, idx int) int {
	k := v.Kernel
	v.Zonal.SetRules([]*gateway.Rule{{
		Name: "chassis-status", From: core.DomainChassis, To: []string{core.DomainInfotainment},
		IDLo: 0, IDHi: uint32(can.MaxStandardID), Action: gateway.Allow,
	}})

	tx := can.NewController("chassis-ecu")
	v.Buses[core.DomainChassis].Attach(tx)
	rng := k.Stream("e20-phase")
	start := rng.Duration(100*sim.Microsecond, 400*sim.Microsecond)
	k.Every(start, 500*sim.Microsecond, func() {
		_ = tx.Send(can.Frame{ID: 0x155, Data: []byte{0x53, 0x54}}, nil)
	})

	if idx%5 == 0 {
		k.At(2*sim.Millisecond, func() {
			_ = v.Zonal.QuarantineZoneOf(core.DomainInfotainment)
		})
	}

	if err := k.RunUntil(4 * sim.Millisecond); err != nil {
		panic(fmt.Sprintf("E20: vehicle %d: %v", idx, err))
	}
	if v.SecurityIncidents() > 0 {
		return 1
	}
	return 0
}
