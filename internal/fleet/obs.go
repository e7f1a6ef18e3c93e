// Fleet observability plane: DriveWaveObs is the sharded drive loop
// (DriveObs drives the whole population as one wave) with three
// attachments, each off in a zero ObsOptions — merged metrics
// (per-vehicle obs.Registry shards folded into one fleet registry in
// vehicle-index order at the drive barrier, so the snapshot is
// byte-identical at any worker count), a deterministic flight recorder
// (per-vehicle traces kept for a seed-hash sample of the fleet plus every
// vehicle with a security incident, under a hard memory bound), and
// runtime telemetry (per-worker progress and wall-clock throughput,
// strictly excluded from the deterministic artifacts).
//
// The determinism split is deliberate: everything reachable from
// ObsResult.Registry and ObsResult.Traces is a pure function of
// (Config, wave, Metrics, TraceRate) — fold order is fixed, sampling
// hashes only the vehicle seed, trace selection is a deterministic
// priority rule — while everything wall-clock lives in DriveStats and
// the DriveObserver callbacks and never feeds back into the artifacts.
package fleet

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"autosec/internal/core"
	"autosec/internal/obs"
	"autosec/internal/sim"
)

// ObsOptions selects which parts of the observability plane a DriveObs
// call attaches. The zero value disables everything: the bare drive
// loop.
type ObsOptions struct {
	// Metrics instruments every vehicle into its worker's registry and
	// folds each vehicle's readings, in vehicle-index order, into
	// ObsResult.Registry.
	Metrics bool

	// TraceRate enables the flight recorder: each vehicle is traced into
	// a DefaultTraceCapacity ring, and the trace is kept if a splitmix64
	// hash of the vehicle's seed falls under this rate (0 disables
	// tracing entirely, >= 1 keeps every vehicle up to DefaultMaxTraces).
	// Vehicles with security incidents (core.Vehicle.SecurityIncidents)
	// keep their traces regardless of the sample — the forensic cases are
	// exactly the ones a fixed-rate sample would usually miss.
	TraceRate float64

	// Observer receives runtime telemetry during the drive. May be nil.
	// Callbacks are invoked concurrently from worker goroutines.
	Observer DriveObserver
}

// DefaultTraceCapacity is the per-vehicle flight-recorder ring size in
// events: 4096 events ≈ 200KB per tracer, small enough that
// DefaultMaxTraces retained rings stay in the tens of MB. The ring keeps
// the most recent window, so it always captures the end of the scenario.
const DefaultTraceCapacity = 4096

// DefaultMaxTraces bounds how many traces one drive retains. When the
// sample exceeds the bound, incident vehicles win over sampled ones and
// lower indices win within each class — a rule chosen so the kept set is
// identical at any worker count.
const DefaultMaxTraces = 32

// VehicleTrace is one kept flight-recorder capture.
type VehicleTrace struct {
	// Index is the vehicle's fleet index; Seed its kernel seed.
	Index int
	Seed  uint64
	// Interesting marks a vehicle kept because it recorded security
	// incidents (it may also have been in the sample).
	Interesting bool
	// Tracer holds the captured events; export with WriteChromeTrace.
	Tracer *obs.Tracer
}

// DriveStats is the runtime telemetry of one drive. None of it is
// deterministic across hosts or worker counts (wall clock, pool
// behaviour and worker split all vary) — keep it out of golden artifacts.
type DriveStats struct {
	Vehicles int
	Workers  int
	// PoolHits/PoolMisses aggregate the per-worker vehicle pools:
	// misses are constructions, hits are recycled resets.
	PoolHits   int
	PoolMisses int
	// TracesKept counts retained flight-recorder captures;
	// TracesInteresting how many of those were incident vehicles.
	TracesKept        int
	TracesInteresting int
	// Wall is the barrier-to-barrier wall-clock time of the drive and
	// VehiclesPerSec the resulting throughput.
	Wall           time.Duration
	VehiclesPerSec float64
}

// DriveObserver receives runtime telemetry while a drive runs. All
// methods must tolerate concurrent calls from worker goroutines; a nil
// observer is valid and free.
type DriveObserver interface {
	// VehicleDone fires after each vehicle completes: worker is the
	// worker index, done/total the progress within that worker's shard.
	VehicleDone(worker, done, total int)
	// DriveDone fires once after the barrier with the run's stats.
	DriveDone(stats DriveStats)
}

// ObsResult carries the observability artifacts of one DriveObs call.
type ObsResult struct {
	// Registry is the fleet-merged metrics registry (nil unless
	// ObsOptions.Metrics): per-vehicle registries materialized before
	// pool release and folded in vehicle-index order, so its snapshot is
	// byte-identical at any worker count.
	Registry *obs.Registry
	// Traces holds the kept flight-recorder captures in index order.
	Traces []VehicleTrace
	// Stats is the runtime telemetry (always populated, never
	// deterministic).
	Stats DriveStats
}

// TraceSampled reports whether vehicle idx of a fleet with base seed
// base is in the flight-recorder sample at the given rate. The decision
// hashes VehicleSeed through one more splitmix64 finalizer round — so it
// is decorrelated from every in-simulation use of the seed — and
// depends only on (base, idx, rate): shard layout and worker count
// cannot move a vehicle in or out of the sample.
func TraceSampled(base uint64, idx int, rate float64) bool {
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	z := sim.Mix64(VehicleSeed(base, idx) ^ 0xD1B54A32D192ED03)
	// Top 53 bits as a uniform float in [0,1): exact, no rounding bias.
	return float64(z>>11)/(1<<53) < rate
}

// keepTrace inserts t into kept (which is in index order) under the
// capacity bound: incident vehicles evict the highest-indexed sampled
// entry; sampled vehicles are dropped once full. Because shards are
// contiguous and the global trim applies the same priority rule, capping
// each worker at the same bound never discards a trace the global
// selection would have kept.
func keepTrace(kept []VehicleTrace, t VehicleTrace, max int) []VehicleTrace {
	if len(kept) < max {
		return append(kept, t)
	}
	if !t.Interesting {
		return kept
	}
	for i := len(kept) - 1; i >= 0; i-- {
		if !kept[i].Interesting {
			copy(kept[i:], kept[i+1:])
			kept[len(kept)-1] = t
			return kept
		}
	}
	return kept // all interesting: lower indices win
}

// selectTraces applies the global retention rule to the concatenated
// per-worker kept lists (already in index order): incident vehicles
// first, lower indices first within each class, capped at max, reordered
// back to index order.
func selectTraces(all []VehicleTrace, max int) []VehicleTrace {
	if len(all) <= max {
		return all
	}
	sel := make([]VehicleTrace, 0, max)
	for _, t := range all {
		if t.Interesting {
			sel = append(sel, t)
			if len(sel) == max {
				break
			}
		}
	}
	if len(sel) < max {
		for _, t := range all {
			if !t.Interesting {
				sel = append(sel, t)
				if len(sel) == max {
					break
				}
			}
		}
	}
	// Both passes appended in index order per class; restore global
	// index order with a stable insertion merge (sel is small).
	for i := 1; i < len(sel); i++ {
		for j := i; j > 0 && sel[j].Index < sel[j-1].Index; j-- {
			sel[j], sel[j-1] = sel[j-1], sel[j]
		}
	}
	return sel
}

// DriveObs runs fn once per vehicle index over d's whole population:
// DriveWaveObs over the single wave [0, d.N).
func DriveObs[T any](ctx context.Context, d Driver, o ObsOptions, fn func(idx int, v *core.Vehicle) (T, error)) ([]T, *ObsResult, error) {
	return DriveWaveObs(ctx, d, o, Wave{Lo: 0, Hi: d.N}, fn)
}

// DriveWaveObs is the sharded drive loop: it runs fn once per vehicle
// index in the given wave of d's population and returns the results
// indexed by idx-wave.Lo, operating the observability plane selected by o. Each
// worker owns a contiguous index shard and a private pool: the first
// acquisition constructs a vehicle, every later one resets it, so
// steady-state sharding does no construction work. fn must treat the
// vehicle as scenario scratch — any rules, observers or traffic it adds
// are rewound by the next Reset.
//
// The driver owns the vehicle's metric binding: with o.Metrics it binds
// each worker's vehicle to the worker's scratch registry once, and the
// binding survives every later Reset. fn may attach a tracer
// (Instrument(tr, nil)) but must not bind a registry; a vehicle bound
// elsewhere would stop feeding the fleet registry.
//
// Vehicle identity is a function of the absolute index: seeds, trace
// sampling and metric fold order all key on idx, never on the wave, so
// driving [0,N) in one call or as a sequence of waves visits
// byte-identical vehicles. The merged registry holds the wave's
// vehicle instruments (core.Vehicle.Instrument); folding waves together
// is the caller's job (Registry.Merge).
//
// An error aborts the drive; the lowest-indexed error observed wins the
// report. A panic in fn or in the pool's Acquire aborts it the same way,
// as an error naming the vehicle's index and seed, and that vehicle is
// discarded rather than reused. ctx cancellation surfaces as that
// context's error. The returned ObsResult is non-nil even when o is zero
// (Stats is always populated).
//
// Tracing requires a shared-kernel build: per-zone-kernel vehicles take
// per-member tracers that cannot share one flight-recorder ring, so
// TraceRate > 0 with Cfg.Zonal.PerZoneKernels is an error. Metrics work
// on every build.
func DriveWaveObs[T any](ctx context.Context, d Driver, o ObsOptions, wave Wave, fn func(idx int, v *core.Vehicle) (T, error)) ([]T, *ObsResult, error) {
	if d.N <= 0 {
		return nil, nil, fmt.Errorf("fleet: population must be positive, got %d", d.N)
	}
	if wave.Lo < 0 || wave.Hi > d.N || wave.Lo >= wave.Hi {
		return nil, nil, fmt.Errorf("fleet: wave %v out of range for population %d", wave, d.N)
	}
	lo, hi := wave.Lo, wave.Hi
	n := hi - lo
	tracing := o.TraceRate > 0
	if tracing && d.Cfg.Zonal != nil && d.Cfg.Zonal.PerZoneKernels {
		return nil, nil, fmt.Errorf("fleet: flight recorder requires a shared-kernel build (Zonal.PerZoneKernels is set)")
	}
	workers := d.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	results := make([]T, n)
	// Per-vehicle metric shards, filled at each vehicle's index and
	// folded after the barrier — the single merge point that makes the
	// fleet snapshot independent of the worker count. Shards are flat
	// value captures under the worker's layout (obs.ShardLayout), not live
	// registries: each worker binds its vehicle to one scratch registry
	// and rewinds it between vehicles instead of building ~100
	// allocations of instrument graph per vehicle.
	var shards []obs.Shard
	var layouts []*obs.ShardLayout
	if o.Metrics {
		shards = make([]obs.Shard, n)
		layouts = make([]*obs.ShardLayout, workers)
	}
	kept := make([][]VehicleTrace, workers)

	var abort driveAbort
	var statsMu sync.Mutex
	stats := DriveStats{Vehicles: n, Workers: workers}
	start := time.Now()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		// Contiguous shards over the driven range; sizes differ by at
		// most one.
		wlo := lo + w*n/workers
		whi := lo + (w+1)*n/workers
		wg.Add(1)
		go func(w, wlo, whi int) {
			defer wg.Done()
			pool := core.NewVehiclePool(d.Cfg)
			// scratch is the recycled tracer for captures that end up
			// discarded; a kept capture surrenders its tracer and the
			// next vehicle allocates a fresh one. scratchReg is the
			// worker's rewindable metrics registry and bound the
			// vehicle Instrument-ed into it. Metric bindings survive
			// Reset, and the pool hands the worker the same vehicle
			// for its whole shard (a panic or an Acquire error ends the
			// worker), so the worker binds once and builds its layout
			// and arena then.
			var scratch *obs.Tracer
			var scratchReg *obs.Registry
			var bound *core.Vehicle
			var arena *obs.ShardArena
			for idx := wlo; idx < whi; idx++ {
				if err := ctx.Err(); err != nil {
					abort.fail(idx, err)
					break
				}
				if abort.aborted.Load() {
					break
				}
				seed := VehicleSeed(d.Cfg.Seed, idx)
				v, _, err := contain(idx, seed, func() (*core.Vehicle, error) { return pool.Acquire(seed) })
				if err != nil {
					abort.fail(idx, err)
					break
				}
				var tr *obs.Tracer
				if tracing {
					if scratch == nil {
						scratch = obs.NewTracer(DefaultTraceCapacity)
					} else {
						scratch.ResetAll()
					}
					tr = scratch
				}
				if o.Metrics && v != bound {
					scratchReg = obs.NewRegistry()
					v.Instrument(tr, scratchReg)
					bound = v
					layouts[w] = obs.NewShardLayout(scratchReg)
					arena = layouts[w].NewArena(whi - idx)
				} else {
					scratchReg.Rewind() // nil, a no-op, with metrics off
					if tr != nil {
						v.Instrument(tr, nil)
					}
				}
				out, panicked, err := contain(idx, seed, func() (T, error) { return fn(idx, v) })
				if panicked {
					// The vehicle's state is suspect: drop it rather
					// than hand it to the next Reset.
					abort.fail(idx, err)
					break
				}
				if err == nil && tracing {
					interesting := v.SecurityIncidents() > 0
					if interesting || TraceSampled(d.Cfg.Seed, idx, o.TraceRate) {
						kept[w] = keepTrace(kept[w], VehicleTrace{
							Index: idx, Seed: seed, Interesting: interesting, Tracer: tr,
						}, DefaultMaxTraces)
						if len(kept[w]) > 0 && kept[w][len(kept[w])-1].Tracer == tr {
							scratch = nil // tracer surrendered to the kept list
						}
					}
				}
				if err == nil && o.Metrics {
					// Export flattens the readings — evaluating every
					// probe — before the vehicle returns to the pool:
					// the next Reset rewinds the very state the probe
					// closures read.
					shards[idx-lo] = arena.Export(scratchReg)
				}
				pool.Release(v)
				if err != nil {
					abort.fail(idx, err)
					break
				}
				results[idx-lo] = out
				if o.Observer != nil {
					o.Observer.VehicleDone(w, idx-wlo+1, whi-wlo)
				}
			}
			statsMu.Lock()
			stats.PoolHits += pool.Hits
			stats.PoolMisses += pool.Misses
			statsMu.Unlock()
		}(w, wlo, whi)
	}
	wg.Wait()
	if err := abort.err(); err != nil {
		return nil, nil, err
	}

	res := &ObsResult{}
	if o.Metrics {
		// Every worker bound a vehicle of d.Cfg, whose registry holds
		// exactly what core.Vehicle.Instrument registers for that Config,
		// so the workers' layouts differ only by pointer: check each once,
		// then pre-sum every shard, in vehicle-index order, under the
		// first — flat array arithmetic, bit-identical to per-shard
		// MergeInto folding (see ShardLayout.Accumulate) — and merge once.
		layout := layouts[0]
		for w, l := range layouts {
			if !layout.EqualShape(l) {
				return nil, nil, fmt.Errorf("fleet: worker %d registered a different metric set than worker 0", w)
			}
		}
		var acc obs.Shard
		for i := range shards {
			if err := layout.Accumulate(&acc, shards[i]); err != nil {
				return nil, nil, fmt.Errorf("fleet: merging vehicle %d metrics: %w", lo+i, err)
			}
		}
		res.Registry = obs.NewRegistry()
		if err := layout.MergeInto(res.Registry, acc); err != nil {
			return nil, nil, fmt.Errorf("fleet: merging fleet metrics: %w", err)
		}
	}
	if tracing {
		var all []VehicleTrace
		for _, ks := range kept {
			all = append(all, ks...) // worker order == index order
		}
		res.Traces = selectTraces(all, DefaultMaxTraces)
		for _, t := range res.Traces {
			if t.Interesting {
				stats.TracesInteresting++
			}
		}
		stats.TracesKept = len(res.Traces)
	}
	stats.Wall = time.Since(start)
	if s := stats.Wall.Seconds(); s > 0 {
		stats.VehiclesPerSec = float64(n) / s
	}
	res.Stats = stats
	if o.Observer != nil {
		o.Observer.DriveDone(stats)
	}
	return results, res, nil
}

// contain runs one pool or scenario call for vehicle idx, wrapping an
// error with the index and turning a panic into an error that names the
// index and seed — the way runner.runOne contains a bad replicate — so
// one bad vehicle fails the drive instead of the process. panicked tells
// the caller the vehicle must not go back to the pool.
func contain[R any](idx int, seed uint64, f func() (R, error)) (r R, panicked bool, err error) {
	defer func() {
		if p := recover(); p != nil {
			panicked = true
			err = fmt.Errorf("fleet: vehicle %d (seed %d): panic: %v", idx, seed, p)
		}
	}()
	r, err = f()
	if err != nil {
		err = fmt.Errorf("fleet: vehicle %d: %w", idx, err)
	}
	return r, false, err
}

// WriteChromeTraces exports every kept trace as a Chrome trace_event
// JSON file named vehicle-<index>.trace.json under dir (created if
// missing), returning the written paths in index order.
func (r *ObsResult) WriteChromeTraces(dir string) ([]string, error) {
	if r == nil || len(r.Traces) == 0 {
		return nil, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(r.Traces))
	for _, t := range r.Traces {
		path := filepath.Join(dir, fmt.Sprintf("vehicle-%06d.trace.json", t.Index))
		f, err := os.Create(path)
		if err != nil {
			return paths, err
		}
		if err := t.Tracer.WriteChromeTrace(f); err != nil {
			f.Close()
			return paths, err
		}
		if err := f.Close(); err != nil {
			return paths, err
		}
		paths = append(paths, path)
	}
	return paths, nil
}
